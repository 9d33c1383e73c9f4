package stream_test

// The feed's producer is session.Session: these tests dictate through a
// session and read what its broadcaster carries.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"speakql/internal/core"
	"speakql/internal/faultinject"
	"speakql/internal/grammar"
	"speakql/internal/literal"
	"speakql/internal/session"
	"speakql/internal/stream"
)

var (
	testEngine     *core.Engine
	testEngineOnce sync.Once
)

func engine(t testing.TB) *core.Engine {
	t.Helper()
	testEngineOnce.Do(func() {
		cat := literal.NewCatalog(
			[]string{"Employees", "Salaries", "Titles"},
			[]string{"FirstName", "LastName", "Salary", "Gender"},
			[]string{"John", "Jon", "Engineer", "M", "F"},
		)
		e, err := core.NewEngine(core.Config{Grammar: grammar.TestScale(), Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		testEngine = e
	})
	return testEngine
}

// TestDictationMatchesOneShot: streaming adds lifecycle and events, not
// semantics — a finalized dictation matches the engine's one-shot path.
func TestDictationMatchesOneShot(t *testing.T) {
	e := engine(t)
	ctx := context.Background()
	frags := []string{"select sales from employers", "wear name equals Jon"}
	s := session.New(e)
	for _, f := range frags {
		if _, err := s.StreamFragment(ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	fin, err := s.FinalizeStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := e.Correct(strings.Join(frags, " "))
	if fin.Best().SQL != want.Best().SQL {
		t.Fatalf("stream SQL %q, one-shot %q", fin.Best().SQL, want.Best().SQL)
	}
	if fin.RawTranscript != strings.Join(frags, " ") {
		t.Errorf("transcript = %q", fin.RawTranscript)
	}
}

func TestDictationPublishesEvents(t *testing.T) {
	b := stream.NewBroadcaster()
	defer b.Close()
	sub := b.Subscribe()
	s := session.New(engine(t))
	s.SetStreamConfig(stream.Config{Events: b, Session: "s1"})
	ctx := context.Background()
	if _, err := s.StreamFragment(ctx, "select sales from employers"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StreamFragment(ctx, "wear name equals Jon"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FinalizeStream(ctx); err != nil {
		t.Fatal(err)
	}
	wantKinds := []string{"fragment", "fragment", "finalized"}
	wantSeqs := []int{1, 2, 2}
	for i, want := range wantKinds {
		select {
		case ev := <-sub.Events():
			if ev.Kind != want {
				t.Fatalf("event %d kind = %q, want %q", i, ev.Kind, want)
			}
			if ev.Session != "s1" {
				t.Fatalf("event %d session = %q", i, ev.Session)
			}
			if ev.Seq != wantSeqs[i] {
				t.Errorf("event %d seq = %d, want %d", i, ev.Seq, wantSeqs[i])
			}
			if want == "finalized" && ev.SQL == "" {
				t.Error("finalized event carries no SQL")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no event %d (%s)", i, want)
		}
	}
	select {
	case ev := <-sub.Events():
		t.Fatalf("unexpected event after finalize: %+v", ev)
	default:
	}
}

// TestDictationInjectedError: a stream fault rejects the fragment before
// any correction, so nothing is published and the display keeps its state.
func TestDictationInjectedError(t *testing.T) {
	inj, err := faultinject.Parse("seed=3;stream:error")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)
	defer faultinject.Set(nil)
	b := stream.NewBroadcaster()
	defer b.Close()
	sub := b.Subscribe()
	s := session.New(engine(t))
	s.SetStreamConfig(stream.Config{Events: b, Session: "s1"})
	_, derr := s.StreamFragment(context.Background(), "select sales from employers")
	var ierr *faultinject.InjectedError
	if !errors.As(derr, &ierr) || ierr.Stage != faultinject.StageStream {
		t.Fatalf("dictate under stream:error returned %v", derr)
	}
	if n, fin := s.StreamPosition(); n != 0 || fin {
		t.Errorf("rejected fragment was applied: %d fragments, finalized %v", n, fin)
	}
	if len(s.Tokens()) != 0 {
		t.Errorf("rejected fragment changed the display: %v", s.Tokens())
	}
	if st := s.Snapshot("s1", "").Stream; st == nil || st.Phase != "idle" {
		t.Errorf("rejected fragment left stream snapshot %+v, want phase idle", st)
	}
	select {
	case ev := <-sub.Events():
		t.Fatalf("rejected fragment published %+v", ev)
	default:
	}
}
