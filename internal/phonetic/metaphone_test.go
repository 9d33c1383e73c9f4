package phonetic

import (
	"strings"
	"testing"
	"testing/quick"
)

// The paper gives explicit encodings in Sections 4 and Appendix E.2; these
// must match exactly, since the worked examples of the literal-voting
// algorithm depend on them.
func TestPaperExamples(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Employees", "EMPLYS"},
		{"Salaries", "SLRS"},
		{"FirstName", "FRSTNM"},
		{"LastName", "LSTNM"},
		{"FROMDATE", "FRMTT"},
		{"TODATE", "TTT"},
		{"FRONT", "FRNT"},
		{"DATE", "TT"},
		{"FRONTDATE", "FRNTTT"},
		{"RUM", "RM"},
		{"RUMDATE", "RMTT"},
	}
	for _, c := range cases {
		if got := Encode(c.in); got != c.want {
			t.Errorf("Encode(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Homophone pairs from the paper's error taxonomy (Table 1 and the running
// example) must encode identically — that is the property literal
// determination relies on.
func TestHomophonesEncodeEqually(t *testing.T) {
	pairs := [][2]string{
		{"sum", "some"},
		{"where", "wear"},
		{"sail", "sale"},
		{"by", "buy"},
		{"knight", "night"},
		{"write", "right"},
	}
	for _, p := range pairs {
		a, b := Encode(p[0]), Encode(p[1])
		if a != b {
			t.Errorf("Encode(%q)=%q != Encode(%q)=%q", p[0], a, p[1], b)
		}
	}
}

// Near-homophones that drive the running example: "employers" must be the
// closest encoding to "Employees" among the table names.
func TestRunningExample(t *testing.T) {
	heard := Encode("employers") // EMPLYRS
	emp := Encode("Employees")   // EMPLYS
	sal := Encode("Salaries")    // SLRS
	if d1, d2 := charEditDist(heard, emp), charEditDist(heard, sal); d1 >= d2 {
		t.Errorf("employers→Employees dist %d not < employers→Salaries dist %d", d1, d2)
	}
	heardSales := Encode("sales")
	salary := Encode("salary")
	if d1, d2 := charEditDist(heardSales, salary), charEditDist(heardSales, Encode("Gender")); d1 >= d2 {
		t.Errorf("sales should be closer to salary (%d) than to Gender (%d)", d1, d2)
	}
}

func TestGeneralWords(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"a", "A"},
		{"ship", "XP"},
		{"nation", "NXN"},
		{"thing", "0NK"},
		{"phone", "FN"},
		{"quick", "KK"},
		{"xylophone", "SLFN"},
		{"knee", "N"},
		{"gnome", "NM"},
		{"wrist", "RST"},
		{"vision", "FXN"},
		{"judge", "JJ"},
		{"school", "SKL"},
		{"church", "XRX"},
		{"dumb", "TM"},
		{"sign", "SN"},
		{"salary", "SLR"},
		{"gender", "JNTR"},
		{"accident", "AKSTNT"},
	}
	for _, c := range cases {
		if got := Encode(c.in); got != c.want {
			t.Errorf("Encode(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDigitsPassThrough(t *testing.T) {
	if got := Encode("1993"); got != "1993" {
		t.Errorf("Encode(1993) = %q", got)
	}
	got := Encode("d002")
	if !strings.Contains(got, "002") {
		t.Errorf("Encode(d002) = %q, digits lost", got)
	}
}

func TestIdentifierSeparatorsIgnored(t *testing.T) {
	if Encode("first_name") != Encode("FirstName") {
		t.Errorf("underscore changed encoding: %q vs %q",
			Encode("first_name"), Encode("FirstName"))
	}
	if Encode("from-date") != Encode("FromDate") {
		t.Errorf("hyphen changed encoding")
	}
}

func TestEncodeTokens(t *testing.T) {
	if got, want := EncodeTokens([]string{"first", "name"}), Encode("firstname"); got != want {
		t.Errorf("EncodeTokens(first,name) = %q, want %q", got, want)
	}
	if got, want := EncodeTokens([]string{"from", "date"}), "FRMTT"; got != want {
		t.Errorf("EncodeTokens(from,date) = %q, want %q", got, want)
	}
}

// Property tests.

func TestEncodeAlphabet(t *testing.T) {
	// Output alphabet is the 16 Metaphone symbols plus digits.
	const alpha = "0BFHJKLMNPRSTWXY" + "AEIOU" + "0123456789"
	f := func(s string) bool {
		for _, r := range Encode(s) {
			if !strings.ContainsRune(alpha, r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeIdempotentOnCase(t *testing.T) {
	f := func(s string) bool {
		return Encode(strings.ToLower(s)) == Encode(strings.ToUpper(s))
	}
	// The non-ASCII runes whose case mapping is an ASCII letter: İ and ı
	// (I), ſ (S) and the Kelvin sign (K). A random draw rarely holds one.
	for _, s := range []string{"İa", "ıa", "ſa", "\u212Aa"} {
		if !f(s) {
			t.Errorf("Encode(%q) differs between lower (%q) and upper (%q) case",
				s, Encode(strings.ToLower(s)), Encode(strings.ToUpper(s)))
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	f := func(s string) bool { return Encode(s) == Encode(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeNoLongerThanDoubleInput(t *testing.T) {
	// Only X expands (to KS); the encoding can never exceed 2× input length.
	f := func(s string) bool { return len(Encode(s)) <= 2*len(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// charEditDist is a plain Levenshtein distance used only by tests here; the
// production version lives in internal/metrics.
func charEditDist(a, b string) int {
	m, n := len(a), len(b)
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n; j++ {
		prev[j] = j
	}
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			c := 1
			if a[i-1] == b[j-1] {
				c = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+c)
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// AppendEncode must produce byte-identical output to Encode for any input,
// both from a string and from a byte-slice argument, and must honor
// append semantics on a non-empty dst.
func TestAppendEncodeMatchesEncode(t *testing.T) {
	f := func(word string) bool {
		want := Encode(word)
		if got := string(AppendEncode(nil, word)); got != want {
			return false
		}
		if got := string(AppendEncode(nil, []byte(word))); got != want {
			return false
		}
		pre := AppendEncode([]byte("PFX"), word)
		return string(pre) == "PFX"+want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// With a pre-grown destination buffer, AppendEncode must not allocate — the
// literal-voting kernel calls it once per enumerated substring.
func TestAppendEncodeSteadyStateAllocs(t *testing.T) {
	dst := make([]byte, 0, 64)
	words := []string{"DepartmentEmployee", "first name", "salaries", "d002"}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, w := range words {
			dst = AppendEncode(dst[:0], w)
		}
	}); allocs != 0 {
		t.Errorf("AppendEncode allocs/op = %v, want 0", allocs)
	}
}
