package session

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func TestStreamFragmentGrowsDisplay(t *testing.T) {
	s := New(engine(t))
	ctx := context.Background()
	out, err := s.StreamFragment(ctx, "select salary from employees")
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != 1 || len(s.Tokens()) == 0 {
		t.Fatalf("first fragment: seq=%d tokens=%v", out.Seq, s.Tokens())
	}
	if _, err := s.StreamFragment(ctx, "where gender equals M"); err != nil {
		t.Fatal(err)
	}
	fin, err := s.FinalizeStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(fin.Best().SQL, "SELECT Salary FROM Employees WHERE") {
		t.Errorf("final SQL = %q", fin.Best().SQL)
	}
	if got, want := s.SQL(), strings.Join(fin.Best().Tokens, " "); got != want {
		t.Errorf("display %q, want finalized %q", got, want)
	}
	// Two fragments = two record-button presses; finalize is free.
	if s.Dictations() != 2 || s.Touches() != 2*CostRecordButton {
		t.Errorf("effort: dictations=%d touches=%d", s.Dictations(), s.Touches())
	}
	// The finalized dictation stays inspectable until the next fragment,
	// and finalizing it again is rejected.
	if n, fin := s.StreamPosition(); n != 2 || !fin {
		t.Errorf("stream position = %d, finalized %v; want 2, true", n, fin)
	}
	if _, err := s.FinalizeStream(ctx); !errors.Is(err, ErrFinalized) {
		t.Errorf("double finalize: err = %v, want ErrFinalized", err)
	}
}

func TestStreamFragmentStartsFreshAfterFinalize(t *testing.T) {
	s := New(engine(t))
	ctx := context.Background()
	if _, err := s.StreamFragment(ctx, "select salary from employees"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FinalizeStream(ctx); err != nil {
		t.Fatal(err)
	}
	out, err := s.StreamFragment(ctx, "select title from titles")
	if err != nil {
		t.Fatal(err)
	}
	if out.Seq != 1 {
		t.Errorf("fragment after finalize reused the old dictation: seq=%d", out.Seq)
	}
	if out.RawTranscript != "select title from titles" {
		t.Errorf("new dictation transcript = %q", out.RawTranscript)
	}
}

func TestFinalizeStreamWithoutDictation(t *testing.T) {
	s := New(engine(t))
	if _, err := s.FinalizeStream(context.Background()); !errors.Is(err, ErrFinalized) {
		t.Fatalf("finalize with no stream: err = %v", err)
	}
}
