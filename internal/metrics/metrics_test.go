package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func toks(s string) []string { return strings.Fields(s) }

func TestTokenEditDistance(t *testing.T) {
	cases := []struct {
		ref, hyp string
		want     int
	}{
		{"SELECT x FROM y", "SELECT x FROM y", 0},
		{"SELECT x FROM y", "SELECT x FROM", 1},
		{"SELECT x FROM y", "SELECT x FROM y z", 1},
		{"SELECT x FROM y", "SELECT q FROM y", 2}, // substitution = delete+insert
		{"a b c", "", 3},
		{"", "a b c", 3},
		{"", "", 0},
		{"a b c d", "d c b a", 6}, // LCS length 1
	}
	for _, c := range cases {
		if got := TokenEditDistance(toks(c.ref), toks(c.hyp)); got != c.want {
			t.Errorf("TED(%q,%q) = %d, want %d", c.ref, c.hyp, got, c.want)
		}
	}
}

func TestTEDSymmetric(t *testing.T) {
	f := func(a, b []string) bool {
		return TokenEditDistance(a, b) == TokenEditDistance(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTEDTriangleBounds(t *testing.T) {
	// TED(a,b) is between |len(a)-len(b)| and len(a)+len(b), and has the
	// same parity as len(a)+len(b).
	f := func(a, b []string) bool {
		d := TokenEditDistance(a, b)
		lo := len(a) - len(b)
		if lo < 0 {
			lo = -lo
		}
		if d < lo || d > len(a)+len(b) {
			return false
		}
		return (d-lo)%2 == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightedTokenEditDistance(t *testing.T) {
	// Deleting a Keyword costs 1.2, a SplChar 1.1, a Literal 1.0.
	if got := WeightedTokenEditDistance(toks("SELECT x"), toks("x")); got != 1.2 {
		t.Errorf("keyword delete = %v, want 1.2", got)
	}
	if got := WeightedTokenEditDistance(toks("= x"), toks("x")); got != 1.1 {
		t.Errorf("splchar delete = %v, want 1.1", got)
	}
	if got := WeightedTokenEditDistance(toks("y x"), toks("x")); got != 1.0 {
		t.Errorf("literal delete = %v, want 1.0", got)
	}
	if got := WeightedTokenEditDistance(toks("a b"), toks("a b")); got != 0 {
		t.Errorf("identical = %v, want 0", got)
	}
}

// Reproduces the dynamic-programming memo of Figure 9: distance between
// "SELECT * FROM x" and "SELECT x x FROM x" is 3.1 (delete *, cost 1.1, and
// insert two literals... per the memo the bottom-right cell is 3.1).
func TestFigure9Memo(t *testing.T) {
	a := toks("SELECT x x FROM x") // MaskOut (rows of the memo)
	b := toks("SELECT * FROM x")   // GrndTrth (columns)
	got := WeightedTokenEditDistance(a, b)
	if got != 3.1 {
		t.Errorf("Figure 9 memo corner = %v, want 3.1", got)
	}
}

func TestProposition1Bounds(t *testing.T) {
	// |m−n|·WL ≤ d ≤ (m+n)·WK for all pairs of structure strings.
	vocab := []string{"SELECT", "FROM", "WHERE", "(", ")", "=", ",", "x", "AND", "OR"}
	f := func(ai, bi []uint8) bool {
		a := make([]string, len(ai))
		for i, v := range ai {
			a[i] = vocab[int(v)%len(vocab)]
		}
		b := make([]string, len(bi))
		for i, v := range bi {
			b[i] = vocab[int(v)%len(vocab)]
		}
		d := WeightedTokenEditDistance(a, b)
		lo := float64(len(a) - len(b))
		if lo < 0 {
			lo = -lo
		}
		lo *= 1.0 // WL
		hi := float64(len(a)+len(b)) * 12 / 10
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCharEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"EMPLYS", "EMPLYRS", 1},
		{"FRMTT", "TTT", 3},
		{"FRNTTT", "FRMTT", 2},
		{"TT", "TTT", 1},
		{"same", "same", 0},
	}
	for _, c := range cases {
		if got := CharEditDistance(c.a, c.b); got != c.want {
			t.Errorf("CharEditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := plainEditDistance(c.a, c.b); got != c.want {
			t.Errorf("plainEditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareExact(t *testing.T) {
	q := toks("SELECT Salary FROM Employees WHERE Name = Jon")
	r := Compare(q, q)
	for name, v := range map[string]float64{
		"KPR": r.KPR, "SPR": r.SPR, "LPR": r.LPR, "WPR": r.WPR,
		"KRR": r.KRR, "SRR": r.SRR, "LRR": r.LRR, "WRR": r.WRR,
	} {
		if v != 1 {
			t.Errorf("%s = %v, want 1 on identical queries", name, v)
		}
	}
}

func TestCompareRunningExample(t *testing.T) {
	ref := toks("SELECT Salary FROM Employees WHERE Name = Jon")
	hyp := toks("select sales from employers wear name equals Jon")
	r := Compare(ref, hyp)
	// Hypothesis kept SELECT and FROM (2 of 3 ref keywords recalled; WHERE
	// heard as "wear").
	if r.KRR != 2.0/3.0 {
		t.Errorf("KRR = %v, want 2/3", r.KRR)
	}
	// No splchar in hyp; "=" missed.
	if r.SRR != 0 {
		t.Errorf("SRR = %v, want 0", r.SRR)
	}
	// Ref literals: salary, employees, name, jon → hyp recalls name, jon.
	if r.LRR != 0.5 {
		t.Errorf("LRR = %v, want 0.5", r.LRR)
	}
}

func TestCompareMultisetCounts(t *testing.T) {
	// Duplicate tokens must be counted with multiplicity.
	ref := toks("a a a")
	hyp := toks("a")
	r := Compare(ref, hyp)
	if r.WRR != 1.0/3.0 {
		t.Errorf("WRR = %v, want 1/3", r.WRR)
	}
	if r.WPR != 1 {
		t.Errorf("WPR = %v, want 1", r.WPR)
	}
}

func TestComparePrecisionRecallBounds(t *testing.T) {
	vocab := []string{"SELECT", "FROM", "=", ",", "salary", "Jon", "45310"}
	f := func(ai, bi []uint8) bool {
		a := make([]string, len(ai))
		for i, v := range ai {
			a[i] = vocab[int(v)%len(vocab)]
		}
		b := make([]string, len(bi))
		for i, v := range bi {
			b[i] = vocab[int(v)%len(vocab)]
		}
		r := Compare(a, b)
		for _, v := range []float64{r.KPR, r.SPR, r.LPR, r.WPR, r.KRR, r.SRR, r.LRR, r.WRR} {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAndBest(t *testing.T) {
	rs := []Rates{
		{KPR: 1, WRR: 0.5},
		{KPR: 0, WRR: 1.0},
	}
	m := Mean(rs)
	if m.KPR != 0.5 || m.WRR != 0.75 {
		t.Errorf("Mean = %+v", m)
	}
	b := Best(rs)
	if b.KPR != 1 || b.WRR != 1 {
		t.Errorf("Best = %+v", b)
	}
	if got := Mean(nil); got != (Rates{}) {
		t.Errorf("Mean(nil) = %+v, want zero", got)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{0, 0, 1, 2, 2, 2, 5})
	if got := c.At(0); got != 2.0/7.0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(2); got != 6.0/7.0 {
		t.Errorf("At(2) = %v", got)
	}
	if got := c.At(10); got != 1 {
		t.Errorf("At(10) = %v", got)
	}
	if got := c.At(-1); got != 0 {
		t.Errorf("At(-1) = %v", got)
	}
	if got := c.At(1.5); got != 3.0/7.0 {
		t.Errorf("At(1.5) = %v", got)
	}
	if q := c.Quantile(0.9); q != 5 {
		t.Errorf("Quantile(0.9) = %v", q)
	}
	if q := c.Quantile(0.5); q != 2 {
		t.Errorf("Quantile(0.5) = %v", q)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(samples []float64) bool {
		for i := range samples {
			if math.IsNaN(samples[i]) {
				samples[i] = 0
			}
		}
		c := NewCDF(samples)
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i] < c.Points[i-1] || c.Values[i] <= c.Values[i-1] {
				return false
			}
		}
		return len(c.Points) == 0 || c.Points[len(c.Points)-1] == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{0, 1, 2, 3, 4}, 2)
	if s.N != 5 || s.Mean != 2 || s.Min != 0 || s.Max != 4 {
		t.Errorf("Summary = %+v", s)
	}
	if s.FractionZero != 0.2 {
		t.Errorf("FractionZero = %v", s.FractionZero)
	}
	if s.FractionUnder != 0.4 { // 0 and 1 are < 2
		t.Errorf("FractionUnder = %v", s.FractionUnder)
	}
	if s.Median != 2 {
		t.Errorf("Median = %v", s.Median)
	}
	if got := Summarize(nil, 1); got.N != 0 {
		t.Errorf("Summarize(nil) = %+v", got)
	}
}

func TestWordErrorRate(t *testing.T) {
	cases := []struct {
		ref, hyp string
		want     float64
	}{
		{"a b c d", "a b c d", 0},
		{"a b c d", "a b c", 0.25},
		{"a b", "a b c d", 1.0},
		{"", "", 0},
		{"", "a", 1},
	}
	for _, c := range cases {
		got := WordErrorRate(toks(c.ref), toks(c.hyp))
		if got != c.want {
			t.Errorf("WER(%q,%q) = %v, want %v", c.ref, c.hyp, got, c.want)
		}
	}
}

func TestCharEditDistanceBounded(t *testing.T) {
	cases := []struct {
		a, b  string
		bound int
		want  int
	}{
		{"", "", 0, 0},
		{"abc", "", 3, 3},
		{"abc", "", 2, 3},  // length-difference prune: bound+1
		{"", "abcd", 2, 3}, // symmetric prune
		{"kitten", "sitting", 3, 3},
		{"kitten", "sitting", 2, 3}, // distance 3 > bound 2 → bound+1
		{"kitten", "sitting", 10, 3},
		{"EMPLYS", "EMPLYRS", 1, 1},
		{"EMPLYS", "EMPLYRS", 0, 1},
		{"same", "same", 0, 0},
		{"FRMTT", "TTT", 1, 2}, // overflow reported as bound+1, not exact
	}
	for _, c := range cases {
		if got := CharEditDistanceBounded(c.a, c.b, c.bound); got != c.want {
			t.Errorf("CharEditDistanceBounded(%q,%q,%d) = %d, want %d", c.a, c.b, c.bound, got, c.want)
		}
	}
}

// The bounded distance must agree with the full distance whenever the full
// distance fits the bound, and report exactly bound+1 otherwise — for every
// input and every bound. This is the contract the BK-tree literal index
// depends on for bit-identical rankings.
func TestCharEditDistanceBoundedMatchesFull(t *testing.T) {
	f := func(a, b string, bound uint8) bool {
		bd := int(bound % 12)
		full := plainEditDistance(a, b)
		got := CharEditDistanceBounded(a, b, bd)
		if full <= bd {
			return got == full
		}
		return got == bd+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// []byte arguments must behave exactly like their string counterparts (the
// pooled vote scratch passes candidate encodings as byte subslices).
func TestCharEditDistanceBoundedBytes(t *testing.T) {
	f := func(a, b string, bound uint8) bool {
		bd := int(bound % 12)
		return CharEditDistanceBounded([]byte(a), b, bd) == CharEditDistanceBounded(a, b, bd) &&
			CharEditDistanceBounded(a, []byte(b), bd) == CharEditDistanceBounded(a, b, bd)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
