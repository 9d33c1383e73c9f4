package structure

import (
	"context"
	"strings"
	"testing"

	"speakql/internal/grammar"
	"speakql/internal/trieindex"
)

var testComp *Component

func comp(t testing.TB) *Component {
	t.Helper()
	if testComp == nil {
		c, err := New(Config{Grammar: grammar.TestScale()})
		if err != nil {
			t.Fatal(err)
		}
		testComp = c
	}
	return testComp
}

func TestDetermineRunningExample(t *testing.T) {
	// Figure 2's running example, end to end through structure
	// determination: the erroneous transcript still yields the right
	// skeleton.
	res := comp(t).Determine("select sales from employers wear name equals Jon")
	want := "SELECT x1 FROM x2 WHERE x3 = x4"
	if got := strings.Join(res.Structure, " "); got != want {
		t.Errorf("got %q, want %q (dist %v)", got, want, res.Distance)
	}
	wantTrans := "SELECT sales FROM employers wear name = Jon"
	if got := strings.Join(res.Transcript, " "); got != wantTrans {
		t.Errorf("transcript = %q, want %q", got, wantTrans)
	}
}

func TestDetermineExactQueries(t *testing.T) {
	cases := []struct {
		transcript string
		want       string
	}{
		{
			// "average" is not a grammar keyword, but the parens force the
			// search to snap to the nearest aggregate structure — exactly
			// the repair behaviour the paper wants.
			"select average open parenthesis salary close parenthesis from salaries",
			"SELECT AVG ( x1 ) FROM x2",
		},
		{
			"select avg open parenthesis salary close parenthesis from salaries",
			"SELECT AVG ( x1 ) FROM x2",
		},
		{
			"select star from employees",
			"SELECT * FROM x1",
		},
		{
			"select lastname from employees natural join salaries where salary greater than 70000",
			"SELECT x1 FROM x2 NATURAL JOIN x3 WHERE x4 > x5",
		},
		{
			"select fromdate from departmentemployee where departmentnumber equals d002",
			"SELECT x1 FROM x2 WHERE x3 = x4",
		},
		{
			"select name from employees where salary between 1000 and 2000",
			"SELECT x1 FROM x2 WHERE x3 BETWEEN x4 AND x5",
		},
		{
			"select name from employees order by salary",
			"SELECT x1 FROM x2 ORDER BY x3",
		},
		{
			"select name from employees limit 10",
			"SELECT x1 FROM x2 LIMIT x3",
		},
	}
	for _, c := range cases {
		res := comp(t).Determine(c.transcript)
		if got := strings.Join(res.Structure, " "); got != c.want {
			t.Errorf("Determine(%q) = %q, want %q", c.transcript, got, c.want)
		}
	}
}

func TestDetermineAvgLiteralNote(t *testing.T) {
	// "AVG" is in the keyword dictionary; when the user says "avg" the
	// structure is exact, distance 0.
	res := comp(t).Determine("select avg ( salary ) from salaries")
	if res.Distance != 0 {
		t.Errorf("exact aggregate query distance = %v, want 0", res.Distance)
	}
}

func TestDetermineTopK(t *testing.T) {
	rs := comp(t).DetermineTopKContext(context.Background(), "select name from employees where id equals 5", 5)
	if len(rs) != 5 {
		t.Fatalf("got %d results", len(rs))
	}
	if got := strings.Join(rs[0].Structure, " "); got != "SELECT x1 FROM x2 WHERE x3 = x4" {
		t.Errorf("top1 = %q", got)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Distance < rs[i-1].Distance {
			t.Fatal("topk not sorted")
		}
	}
}

func TestDetermineEmptyTranscript(t *testing.T) {
	res := comp(t).Determine("")
	if len(res.Structure) == 0 {
		t.Fatal("empty transcript should still return the closest (shortest) structure")
	}
}

func TestPlaceholdersSequential(t *testing.T) {
	res := comp(t).Determine("select a comma b from t where c equals d and e less than f")
	n := 0
	for _, tok := range res.Structure {
		if strings.HasPrefix(tok, "x") {
			n++
			if tok != "x"+itoa(n) {
				t.Fatalf("placeholder %q out of order in %v", tok, res.Structure)
			}
		}
	}
	if n == 0 {
		t.Fatal("no placeholders")
	}
}

func itoa(n int) string {
	return strings.TrimLeft(strings.Map(func(r rune) rune { return r }, string(rune('0'+n))), "")
}

func TestNestedQuerySplit(t *testing.T) {
	outer, inner := splitNested(strings.Fields(
		"SELECT name FROM employees WHERE id IN ( SELECT id FROM managers )"))
	if inner == nil {
		t.Fatal("nested query not detected")
	}
	if got := strings.Join(inner, " "); got != "SELECT id FROM managers" {
		t.Errorf("inner = %q", got)
	}
	if got := strings.Join(outer, " "); got != "SELECT name FROM employees WHERE id IN ( x )" {
		t.Errorf("outer = %q", got)
	}
}

func TestNestedQueryNoSplit(t *testing.T) {
	outer, inner := splitNested(strings.Fields("SELECT name FROM employees"))
	if inner != nil {
		t.Fatal("false nested detection")
	}
	if len(outer) != 4 {
		t.Fatal("outer mangled")
	}
}

func TestDetermineNested(t *testing.T) {
	res := comp(t).Determine(
		"select name from employees where id in open parenthesis select id from managers close parenthesis")
	got := strings.Join(res.Structure, " ")
	want := "SELECT x1 FROM x2 WHERE x3 IN ( SELECT x4 FROM x5 )"
	if got != want {
		t.Errorf("nested: got %q, want %q", got, want)
	}
}

func TestNewFromIndex(t *testing.T) {
	base := comp(t)
	c2 := NewFromIndex(base.Index(), trieindex.Options{DAP: true}, grammar.TestScale())
	res := c2.Determine("select star from employees")
	if got := strings.Join(res.Structure, " "); got != "SELECT * FROM x1" {
		t.Errorf("shared-index DAP component: got %q", got)
	}
}

func TestNestedQuerySplitNoCloseParen(t *testing.T) {
	// Trailing nested query with the close paren never spoken: the inner
	// span runs to the end of the transcript.
	outer, inner := splitNested(strings.Fields(
		"SELECT name FROM employees WHERE id IN ( SELECT id FROM managers"))
	if got := strings.Join(inner, " "); got != "SELECT id FROM managers" {
		t.Errorf("inner = %q", got)
	}
	if got := strings.Join(outer, " "); got != "SELECT name FROM employees WHERE id IN ( x" {
		t.Errorf("outer = %q", got)
	}
}

func TestNestedQuerySplitInnerParens(t *testing.T) {
	// Parens inside the nested query (COUNT ( id )) must not end the span:
	// only the depth-0 close paren does.
	outer, inner := splitNested(strings.Fields(
		"SELECT name FROM employees WHERE id IN ( SELECT COUNT ( id ) FROM managers )"))
	if got := strings.Join(inner, " "); got != "SELECT COUNT ( id ) FROM managers" {
		t.Errorf("inner = %q", got)
	}
	if got := strings.Join(outer, " "); got != "SELECT name FROM employees WHERE id IN ( x )" {
		t.Errorf("outer = %q", got)
	}
}

func TestSpliceNestedReplacesValueSlot(t *testing.T) {
	outer := strings.Fields("SELECT x FROM x WHERE x IN ( x )")
	inner := strings.Fields("SELECT x FROM x")
	got := strings.Join(spliceNested(outer, inner), " ")
	if got != "SELECT x FROM x WHERE x IN ( SELECT x FROM x )" {
		t.Errorf("spliced = %q", got)
	}
}

func TestSpliceNestedNoValueSlot(t *testing.T) {
	// No ( literal ) slot in the outer structure: the inner structure is
	// appended parenthesized rather than dropped.
	outer := strings.Fields("SELECT x FROM x")
	inner := strings.Fields("SELECT x FROM x")
	got := strings.Join(spliceNested(outer, inner), " ")
	if got != "SELECT x FROM x ( SELECT x FROM x )" {
		t.Errorf("spliced = %q", got)
	}
}

func TestSpliceNestedPicksLastSlot(t *testing.T) {
	// Two candidate slots: the splice targets the rightmost one (nested
	// queries are dictated last in the transcripts we split).
	outer := strings.Fields("SELECT COUNT ( x ) FROM x WHERE x IN ( x )")
	inner := strings.Fields("SELECT x FROM x")
	got := strings.Join(spliceNested(outer, inner), " ")
	if got != "SELECT COUNT ( x ) FROM x WHERE x IN ( SELECT x FROM x )" {
		t.Errorf("spliced = %q", got)
	}
}
