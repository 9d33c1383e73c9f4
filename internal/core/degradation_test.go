package core

// degradation_test.go covers the graceful-degradation ladder: every Output
// names its level, levels match what actually happened, and a degraded
// response is explicitly partial (skeletons with nil bindings) — never a
// half-filled candidate.

import (
	"context"
	"testing"

	"speakql/internal/faultinject"
)

const degradeTranscript = "select sales from employers wear name equals Jon"

func TestDegradationFullOnHealthyPath(t *testing.T) {
	out := engine(t).CorrectTopK(degradeTranscript, 3)
	if out.Degradation != DegradationFull {
		t.Fatalf("degradation = %q, want full", out.Degradation)
	}
	if out.Degraded() {
		t.Error("Degraded() true at full fidelity")
	}
	for i, c := range out.Candidates {
		if len(c.Bindings) == 0 {
			t.Errorf("full-fidelity candidate %d has no bindings", i)
		}
	}
}

// A failing literal stage degrades the whole response to skeletons: every
// candidate keeps its structure, with placeholders unbound — never a mix of
// filled and unfilled candidates in one ranking.
func TestDegradationStructureOnlyOnLiteralFailure(t *testing.T) {
	inj, err := faultinject.Parse("seed=9;literal:error@1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)
	defer faultinject.Set(nil)

	out := engine(t).CorrectTopK(degradeTranscript, 3)
	if out.Degradation != DegradationStructureOnly {
		t.Fatalf("degradation = %q, want structure_only", out.Degradation)
	}
	if out.Err != nil {
		t.Fatalf("structure_only must be served, not failed: %v", out.Err)
	}
	if len(out.Candidates) == 0 {
		t.Fatal("structure_only served no skeletons")
	}
	for i, c := range out.Candidates {
		if c.Bindings != nil {
			t.Errorf("candidate %d: bindings on a structure_only response", i)
		}
		if len(c.Tokens) != len(c.Structure) {
			t.Errorf("candidate %d: tokens %v diverge from structure %v — half-filled?",
				i, c.Tokens, c.Structure)
		}
		for j, tok := range c.Tokens {
			if tok != c.Structure[j] {
				t.Errorf("candidate %d token %d: %q filled despite structure_only", i, j, tok)
			}
		}
	}
}

// A failing structure stage sheds: explicit error, no candidates.
func TestDegradationShedOnStructureFailure(t *testing.T) {
	inj, err := faultinject.Parse("seed=9;structure:error@1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)
	defer faultinject.Set(nil)

	out := engine(t).Correct(degradeTranscript)
	if out.Degradation != DegradationShed {
		t.Fatalf("degradation = %q, want shed", out.Degradation)
	}
	if out.Err == nil {
		t.Error("shed on stage failure must carry the error")
	}
	if len(out.Candidates) != 0 {
		t.Errorf("shed response carries %d candidates", len(out.Candidates))
	}
}

// An expired context sheds before any work — and still names its level, so
// deadline_hit and degradation can never disagree at the HTTP layer.
func TestDegradationShedOnExpiredContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := engine(t).CorrectTopKContext(ctx, degradeTranscript, 3)
	if out.Degradation != DegradationShed {
		t.Fatalf("degradation = %q, want shed", out.Degradation)
	}
	if len(out.Candidates) != 0 {
		t.Errorf("cancelled correction produced %d candidates", len(out.Candidates))
	}
	if out.Err != nil {
		t.Errorf("deadline shed is not a stage failure: %v", out.Err)
	}
}
