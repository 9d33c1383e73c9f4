package literal

import (
	"fmt"
	"strings"
	"testing"
)

// TestVoteMemoIdentical is the memo's purity test: running determination
// repeatedly through one shared VoteMemo — including on grown "fragment"
// transcripts whose early windows hit the memo — must produce bindings
// byte-identical to the memo-free path, TopK and consumed windows included.
func TestVoteMemoIdentical(t *testing.T) {
	cat := employeesCatalog()
	cases := []struct {
		trans, structToks string
	}{
		{"SELECT first name FROM employers", "SELECT x1 FROM x2"},
		{"SELECT first name FROM employers WHERE salary > 50000", "SELECT x1 FROM x2 WHERE x3 > x4"},
		{"SELECT title FROM titles WHERE first name = jon", "SELECT x1 FROM x2 WHERE x3 = x4"},
		{"SELECT gender FROM employees WHERE title = senior engineer", "SELECT x1 FROM x2 WHERE x3 = x4"},
		{"SELECT salary FROM salaries WHERE employee number = d002", "SELECT x1 FROM x2 WHERE x3 = x4"},
	}
	memo := NewVoteMemo()
	for round := 0; round < 3; round++ { // later rounds are all memo hits
		for ci, c := range cases {
			trans, st := fields(c.trans), fields(c.structToks)
			want, werr := DetermineErr(trans, st, cat, 5)
			got, gerr := DetermineMemoErr(trans, st, cat, 5, memo)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("case %d: err %v vs %v", ci, werr, gerr)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round=%d case %d:\n memo: %v\n want: %v", round, ci, got, want)
			}
		}
	}
}

// TestVoteMemoGrowingPrefix mimics the streaming pattern: the transcript
// grows a clause at a time, and each prefix's memoized determination must
// match the memo-free one for that same prefix.
func TestVoteMemoGrowingPrefix(t *testing.T) {
	cat := employeesCatalog()
	steps := []struct {
		trans, structToks string
	}{
		{"SELECT first name", "SELECT x1"},
		{"SELECT first name FROM employers", "SELECT x1 FROM x2"},
		{"SELECT first name FROM employers WHERE title = engineer", "SELECT x1 FROM x2 WHERE x3 = x4"},
		{"SELECT first name FROM employers WHERE title = engineer AND salary > 70000",
			"SELECT x1 FROM x2 WHERE x3 = x4 AND x5 > x6"},
	}
	memo := NewVoteMemo()
	for i, s := range steps {
		trans, st := fields(s.trans), fields(s.structToks)
		want := Determine(trans, st, cat, 5)
		got, err := DetermineMemoErr(trans, st, cat, 5, memo)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d (%s):\n memo: %v\n want: %v", i, s.trans, got, want)
		}
		for _, b := range got {
			if strings.Contains(b.Placeholder, " ") {
				t.Fatalf("bad placeholder %q", b.Placeholder)
			}
		}
	}
	if len(memo.m) == 0 {
		t.Fatal("memo never populated")
	}
}
