package structure

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"speakql/internal/grammar"
	"speakql/internal/obs"
	"speakql/internal/trieindex"
)

// renderResults formats the determination output for comparison: structure,
// distance, and processed transcript. Stats are deliberately excluded — they
// count search work, and the warm-started incremental search legitimately
// visits fewer nodes than a cold one while returning identical results.
func renderResults(rs []Result) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%v | %v | %v\n", r.Structure, r.Distance, r.Transcript)
	}
	return b.String()
}

// streamTranscripts are dictations split at realistic clause boundaries,
// including cases engineered to defeat naive suffix extension: spoken forms
// merging across a fragment boundary ("is less" + "than") and a nested
// SELECT appearing mid-dictation, which rewrites the outer masked query.
var streamTranscripts = [][]string{
	{"select first name", "from employees", "where salary equals 70000"},
	{"select sales from employers", "wear name equals Jon"},
	{"select salary from salaries where salary is less", "than 70000"},
	{"select first name from employees where salary greater", "than or equal to 50000"},
	{"select name from employees where salary equals", "select max open parenthesis salary close parenthesis from salaries"},
	{"select count open parenthesis", "star close parenthesis from titles"},
	{"select first name from employees", "", "where gender equals F"},
}

// TestIncrementalMatchesOneShot: at every fragment boundary, the
// incremental determiner must return byte-identical results to a one-shot
// DetermineTopK over the accumulated transcript.
func TestIncrementalMatchesOneShot(t *testing.T) {
	c := NewFromIndex(comp(t).Index(), trieindex.Options{}, comp(t).cfg)
	for ti, frags := range streamTranscripts {
		inc := c.NewIncremental(3)
		var full []string
		for fi, frag := range frags {
			if f := strings.TrimSpace(frag); f != "" {
				full = append(full, f)
			}
			got, err := inc.AppendFragment(context.Background(), frag)
			if err != nil {
				t.Fatal(err)
			}
			want := c.DetermineTopK(strings.Join(full, " "), 3)
			if renderResults(got) != renderResults(want) {
				t.Fatalf("transcript %d fragment %d:\n incremental: %v\n one-shot:    %v",
					ti, fi, got, want)
			}
		}
		if inc.Transcript() != strings.Join(full, " ") {
			t.Fatalf("transcript %q, want %q", inc.Transcript(), strings.Join(full, " "))
		}
	}
}

// TestIncrementalRandomSplits fuzzes fragment boundaries: any split of a
// transcript's words into fragments must agree with the one-shot path at
// every prefix.
func TestIncrementalRandomSplits(t *testing.T) {
	c := comp(t)
	transcripts := []string{
		"select first name from employees where salary is less than 70000",
		"select average open parenthesis salary close parenthesis from salaries",
		"select title from titles where first name equals jon and salary greater than 50000",
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		text := transcripts[trial%len(transcripts)]
		words := strings.Fields(text)
		inc := c.NewIncremental(2)
		var consumed []string
		for start := 0; start < len(words); {
			n := 1 + rng.Intn(4)
			if start+n > len(words) {
				n = len(words) - start
			}
			frag := strings.Join(words[start:start+n], " ")
			consumed = append(consumed, words[start:start+n]...)
			start += n
			got, err := inc.AppendFragment(context.Background(), frag)
			if err != nil {
				t.Fatal(err)
			}
			want := c.DetermineTopK(strings.Join(consumed, " "), 2)
			if renderResults(got) != renderResults(want) {
				t.Fatalf("trial %d after %q:\n incremental: %v\n one-shot:    %v",
					trial, strings.Join(consumed, " "), got, want)
			}
		}
	}
}

// TestIncrementalResetCounter: a boundary-merging spoken form must be
// detected as a non-extension and counted as a searcher reset.
func TestIncrementalResetCounter(t *testing.T) {
	c := comp(t)
	obs.Default().Reset()
	inc := c.NewIncremental(1)
	if _, err := inc.AppendFragment(context.Background(), "select salary from salaries where salary is less"); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.AppendFragment(context.Background(), "than 70000"); err != nil {
		t.Fatal(err)
	}
	if n := obs.Default().Snapshot().Counters["structure.stream_resets"]; n == 0 {
		t.Fatal("boundary-merging fragment did not count a searcher reset")
	}
}

// TestIncrementalRedetermine: re-running without appending returns the same
// results again (the finalize path).
func TestIncrementalRedetermine(t *testing.T) {
	c := comp(t)
	inc := c.NewIncremental(3)
	first, err := inc.AppendFragment(context.Background(), "select first name from employees")
	if err != nil {
		t.Fatal(err)
	}
	again, err := inc.Redetermine(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if renderResults(first) != renderResults(again) {
		t.Fatalf("redetermine drifted:\n first: %v\n again: %v", first, again)
	}
}

var _ = grammar.TestScale // keep the import if helpers change
