package core

// fragment_test.go is the differential proof for the clause-streaming
// pipeline: correcting a transcript fragment by fragment (CorrectFragment,
// then Finalize) must produce bit-identical output to a one-shot Correct of
// the same full transcript — plain, and with latency-only fault injection
// active. Comparisons cover candidates (SQL, tokens, structure, bindings,
// distances), transcript, and degradation level, never latencies or
// search-work stats: a fragment answered from the search LRU reports the
// stats of the search that filled the entry.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"speakql/internal/faultinject"
)

// renderOutput formats everything an Output promises about the corrected
// query — and nothing about how long it took to compute.
func renderOutput(out Output) string {
	var b strings.Builder
	fmt.Fprintf(&b, "transcript=%v degradation=%s err=%v\n",
		out.Transcript, out.Degradation, out.Err)
	for i, c := range out.Candidates {
		fmt.Fprintf(&b, "%d: sql=%q tokens=%v structure=%v dist=%v bindings=%+v\n",
			i, c.SQL, c.Tokens, c.Structure, c.StructureDistance, c.Bindings)
	}
	return b.String()
}

// fragmentCases are dictations split at clause boundaries, including
// adversarial splits: a spoken form merging across the boundary and a
// nested SELECT arriving mid-dictation.
var fragmentCases = [][]string{
	{"select sales from employers", "wear name equals Jon"},
	{"select first name", "from employees", "where salary equals 70000"},
	{"select salary from salaries where salary is less", "than 70000"},
	{"select name from employees where salary equals",
		"select max open parenthesis salary close parenthesis from salaries"},
	{"select first name from employees", "", "where gender equals F"},
}

// randomSplits cuts transcripts into fragments of 1–4 words at seeded
// random points: any split of a transcript's words must agree with the
// one-shot path at every prefix.
func randomSplits() [][]string {
	transcripts := []string{
		"select first name from employees where salary is less than 70000",
		"select average open parenthesis salary close parenthesis from salaries",
		"select title from titles where first name equals jon and salary greater than 50000",
	}
	rng := rand.New(rand.NewSource(41))
	var cases [][]string
	for trial := 0; trial < 20; trial++ {
		words := strings.Fields(transcripts[trial%len(transcripts)])
		var frags []string
		for start := 0; start < len(words); {
			n := min(1+rng.Intn(4), len(words)-start)
			frags = append(frags, strings.Join(words[start:start+n], " "))
			start += n
		}
		cases = append(cases, frags)
	}
	return cases
}

func diffFragments(t *testing.T, e *Engine, frags []string) {
	t.Helper()
	ctx := context.Background()
	fs := e.NewFragmentSession()
	var full []string
	var last FragmentOutput
	for fi, frag := range frags {
		if f := strings.TrimSpace(frag); f != "" {
			full = append(full, f)
		}
		last = fs.CorrectFragment(ctx, frag)
		want := e.Correct(strings.Join(full, " "))
		if renderOutput(last.Output) != renderOutput(want) {
			t.Fatalf("fragment %d diverged from one-shot:\n incremental: %s\n one-shot:    %s",
				fi, renderOutput(last.Output), renderOutput(want))
		}
		if last.Seq != fi+1 {
			t.Errorf("fragment %d: Seq = %d", fi, last.Seq)
		}
	}
	fin := fs.Finalize(ctx)
	want := e.Correct(strings.Join(full, " "))
	if renderOutput(fin.Output) != renderOutput(want) {
		t.Fatalf("finalize diverged from one-shot:\n finalize: %s\n one-shot: %s",
			renderOutput(fin.Output), renderOutput(want))
	}
	if fin.RawTranscript != strings.Join(full, " ") {
		t.Errorf("RawTranscript = %q, want %q", fin.RawTranscript, strings.Join(full, " "))
	}
	if got := fs.Fragments(); len(got) != len(frags) {
		t.Errorf("Fragments() kept %d fragments, want %d", len(got), len(frags))
	}
	// Streaming position metadata sanity: the stable prefix is a valid token
	// bound, and every pending name is a placeholder of the best structure.
	best := fin.Best()
	if fin.StablePrefixLen < 0 || fin.StablePrefixLen > len(best.Tokens) {
		t.Errorf("StablePrefixLen = %d with %d tokens", fin.StablePrefixLen, len(best.Tokens))
	}
	for _, p := range fin.Pending {
		found := false
		for _, tok := range best.Structure {
			if tok == p {
				found = true
			}
		}
		if !found {
			t.Errorf("pending placeholder %q not in structure %v", p, best.Structure)
		}
	}
}

// TestCorrectFragmentMatchesOneShot is the differential acceptance test:
// every fragment boundary of the clause-boundary cases and of the random
// splits.
func TestCorrectFragmentMatchesOneShot(t *testing.T) {
	e := engine(t)
	for ci, frags := range fragmentCases {
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			diffFragments(t, e, frags)
		})
	}
	for si, frags := range randomSplits() {
		t.Run(fmt.Sprintf("split%d", si), func(t *testing.T) {
			diffFragments(t, e, frags)
		})
	}
}

// TestCorrectFragmentMatchesOneShotUnderFaults runs the differential test
// with latency-only fault injection active on both stages. Latency faults
// slow the pipeline without changing any result; error and panic faults are
// out of scope here because the fragment path legitimately issues a
// different number of stage calls (one per fragment), so the deterministic
// per-ordinal decision streams diverge between the two paths.
func TestCorrectFragmentMatchesOneShotUnderFaults(t *testing.T) {
	inj, err := faultinject.Parse("seed=7;structure:latency=200us;literal:latency=200us")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)
	defer faultinject.Set(nil)
	e := engine(t)
	for ci, frags := range fragmentCases {
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			diffFragments(t, e, frags)
		})
	}
}

// TestFragmentSessionEmpty: finalizing an empty session must not panic and
// must report an empty transcript.
func TestFragmentSessionEmpty(t *testing.T) {
	fs := engine(t).NewFragmentSession()
	out := fs.Finalize(context.Background())
	if out.RawTranscript != "" {
		t.Errorf("RawTranscript = %q on empty session", out.RawTranscript)
	}
	if out.Err != nil {
		t.Errorf("empty finalize errored: %v", out.Err)
	}
}

// TestFragmentSessionPendingShrinks: after the WHERE value arrives, the
// stable prefix must cover at least the SELECT/FROM clause that can no
// longer change.
func TestFragmentSessionPendingShrinks(t *testing.T) {
	fs := engine(t).NewFragmentSession()
	ctx := context.Background()
	first := fs.CorrectFragment(ctx, "select sales from employers")
	if len(first.Best().Tokens) == 0 {
		t.Fatal("no candidate after first fragment")
	}
	second := fs.CorrectFragment(ctx, "wear name equals Jon")
	if second.StablePrefixLen == 0 && len(second.Best().Tokens) > 0 {
		t.Errorf("no stable prefix after full dictation: %+v", second)
	}
}
