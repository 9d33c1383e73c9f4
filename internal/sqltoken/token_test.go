package sqltoken

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		tok  string
		want Class
	}{
		{"SELECT", Keyword},
		{"select", Keyword},
		{"SeLeCt", Keyword},
		{"FROM", Keyword},
		{"NATURAL", Keyword},
		{"JOIN", Keyword},
		{"ORDER", Keyword},
		{"BY", Keyword},
		{"AVG", Keyword},
		{"COUNT", Keyword},
		{"BETWEEN", Keyword},
		{"*", SplChar},
		{"=", SplChar},
		{"<", SplChar},
		{">", SplChar},
		{"(", SplChar},
		{")", SplChar},
		{".", SplChar},
		{",", SplChar},
		{"Salary", Literal},
		{"Employees", Literal},
		{"CUSTID_1729A", Literal},
		{"45310", Literal},
		{"1993-01-20", Literal},
		{"x1", Literal},
		{"", Literal},
		{"selects", Literal}, // not a keyword, no prefix matching
	}
	for _, c := range cases {
		if got := Classify(c.tok); got != c.want {
			t.Errorf("Classify(%q) = %v, want %v", c.tok, got, c.want)
		}
	}
}

func TestWeightOrdering(t *testing.T) {
	// The paper's requirement is the ordering WK > WS > WL.
	if !(CostKeyword > CostSplChar && CostSplChar > CostLiteral) {
		t.Fatalf("cost ordering violated: WK=%v WS=%v WL=%v",
			CostKeyword, CostSplChar, CostLiteral)
	}
	if Cost("SELECT") != CostKeyword || Cost("=") != CostSplChar || Cost("Salary") != CostLiteral {
		t.Fatal("Cost does not dispatch on class")
	}
}

func TestTokenizeSQL(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{
			"SELECT AVG ( salary ) FROM Salaries",
			[]string{"SELECT", "AVG", "(", "salary", ")", "FROM", "Salaries"},
		},
		{
			"SELECT AVG(salary) FROM Salaries", // no spaces around splchars
			[]string{"SELECT", "AVG", "(", "salary", ")", "FROM", "Salaries"},
		},
		{
			"SELECT FromDate FROM DepartmentEmployee WHERE DepartmentNumber = 'd002'",
			[]string{"SELECT", "FromDate", "FROM", "DepartmentEmployee", "WHERE", "DepartmentNumber", "=", "d002"},
		},
		{
			"SELECT SUM ( salary ) FROM Salaries WHERE FromDate = '1993-01-20'",
			[]string{"SELECT", "SUM", "(", "salary", ")", "FROM", "Salaries", "WHERE", "FromDate", "=", "1993-01-20"},
		},
		{
			"SELECT * FROM Employees natural join Titles LIMIT 10",
			[]string{"SELECT", "*", "FROM", "Employees", "NATURAL", "JOIN", "Titles", "LIMIT", "10"},
		},
		{
			"SELECT Gender , AVG ( salary ) FROM Employees GROUP BY Employees . Gender",
			[]string{"SELECT", "Gender", ",", "AVG", "(", "salary", ")", "FROM", "Employees", "GROUP", "BY", "Employees", ".", "Gender"},
		},
		{
			"SELECT a FROM t WHERE v = 3.5", // decimal point stays inside number
			[]string{"SELECT", "a", "FROM", "t", "WHERE", "v", "=", "3.5"},
		},
		{
			"SELECT name FROM t WHERE x IN ( 'a' , 'b' )",
			[]string{"SELECT", "name", "FROM", "t", "WHERE", "x", "IN", "(", "a", ",", "b", ")"},
		},
		{"", nil},
		{"   ", nil},
	}
	for _, c := range cases {
		got := TokenizeSQL(c.in)
		if !eqSlice(got, c.want) {
			t.Errorf("TokenizeSQL(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeSQLQuotedValueWithSpaces(t *testing.T) {
	got := TokenizeSQL("SELECT * FROM t WHERE name = '#21/#07 SS-Green Light Racing'")
	want := []string{"SELECT", "*", "FROM", "t", "WHERE", "name", "=", "#21/#07 SS-Green Light Racing"}
	if !eqSlice(got, want) {
		t.Errorf("quoted value: got %v want %v", got, want)
	}
}

func TestTokenizeTranscript(t *testing.T) {
	got := TokenizeTranscript("select sales from employers wear name equals Jon")
	want := []string{"select", "sales", "from", "employers", "wear", "name", "equals", "Jon"}
	if !eqSlice(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
	got = TokenizeTranscript("select * from t where a=b")
	want = []string{"select", "*", "from", "t", "where", "a", "=", "b"}
	if !eqSlice(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestSubstituteSpokenForms(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{
			"select star from employees",
			[]string{"SELECT", "*", "FROM", "employees"},
		},
		{
			"select salary from salaries where salary greater than 70000",
			[]string{"SELECT", "salary", "FROM", "salaries", "WHERE", "salary", ">", "70000"},
		},
		{
			"where salary is less than 500",
			[]string{"WHERE", "salary", "<", "500"},
		},
		{
			"where name equals Jon",
			[]string{"WHERE", "name", "=", "Jon"},
		},
		{
			"where name is equal to Jon",
			[]string{"WHERE", "name", "=", "Jon"},
		},
		{
			"select avg open parenthesis salary close parenthesis from salaries",
			[]string{"SELECT", "AVG", "(", "salary", ")", "FROM", "salaries"},
		},
		{
			"select a comma b from t",
			[]string{"SELECT", "a", ",", "b", "FROM", "t"},
		},
		{
			"group by employees dot gender",
			[]string{"GROUP", "BY", "employees", ".", "gender"},
		},
	}
	for _, c := range cases {
		got := SubstituteSpokenForms(TokenizeTranscript(c.in))
		if !eqSlice(got, c.want) {
			t.Errorf("SubstituteSpokenForms(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSubstituteLongestMatchFirst(t *testing.T) {
	// "less than or equal to" must become one "<", not "<" followed by
	// stray tokens from a shorter match.
	got := SubstituteSpokenForms([]string{"a", "less", "than", "or", "equal", "to", "b"})
	want := []string{"a", "<", "b"}
	if !eqSlice(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestMaskLiterals(t *testing.T) {
	toks := []string{"SELECT", "sales", "FROM", "employers", "wear", "name", "=", "Jon"}
	res := MaskLiterals(toks)
	wantMasked := []string{"SELECT", "x1", "FROM", "x2", "x3", "x4", "=", "x5"}
	wantLits := []string{"sales", "employers", "wear", "name", "Jon"}
	if !eqSlice(res.Masked, wantMasked) {
		t.Errorf("Masked = %v, want %v", res.Masked, wantMasked)
	}
	if !eqSlice(res.Literals, wantLits) {
		t.Errorf("Literals = %v, want %v", res.Literals, wantLits)
	}
}

func TestMaskGeneric(t *testing.T) {
	toks := []string{"SELECT", "sales", "FROM", "employers", "WHERE", "name", "=", "Jon"}
	got := MaskGeneric(toks)
	want := []string{"SELECT", "x", "FROM", "x", "WHERE", "x", "=", "x"}
	if !eqSlice(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestIsPlaceholder(t *testing.T) {
	for _, ok := range []string{"x", "x1", "x12", "X3"} {
		if !IsPlaceholder(ok) {
			t.Errorf("IsPlaceholder(%q) = false, want true", ok)
		}
	}
	for _, no := range []string{"", "y1", "x1a", "xx", "1x", "salary"} {
		if IsPlaceholder(no) {
			t.Errorf("IsPlaceholder(%q) = true, want false", no)
		}
	}
}

func TestPlaceholderRoundTrip(t *testing.T) {
	f := func(n uint8) bool {
		i := int(n)%1000 + 1
		return IsPlaceholder(Placeholder(i))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: masking never changes sequence length, and every masked token is
// either a Keyword, a SplChar, or a placeholder.
func TestMaskInvariants(t *testing.T) {
	vocab := []string{"SELECT", "FROM", "WHERE", "(", ")", "=", ",", "salary",
		"Employees", "Jon", "45310", "order", "by", "sum"}
	f := func(idx []uint8) bool {
		toks := make([]string, len(idx))
		for i, v := range idx {
			toks[i] = vocab[int(v)%len(vocab)]
		}
		res := MaskLiterals(toks)
		if len(res.Masked) != len(toks) {
			return false
		}
		nLit := 0
		for _, m := range res.Masked {
			switch Classify(m) {
			case Keyword, SplChar:
			default:
				if !IsPlaceholder(m) {
					return false
				}
				nLit++
			}
		}
		return nLit == len(res.Literals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: TokenizeSQL never produces tokens containing whitespace, and
// unquoted inputs round-trip through Join/TokenizeSQL.
func TestTokenizeNoWhitespace(t *testing.T) {
	f := func(words []string) bool {
		in := strings.Join(words, " ")
		for _, tok := range TokenizeSQL(in) {
			if strings.ContainsAny(tok, " \t\n") && !strings.Contains(in, "'") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func eqSlice(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestThenHomophoneComparatives(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"where salary greater then 500", []string{"WHERE", "salary", ">", "500"}},
		{"where salary less then 500", []string{"WHERE", "salary", "<", "500"}},
		{"where salary is less then or equal to 500", []string{"WHERE", "salary", "<", "500"}},
	}
	for _, c := range cases {
		got := SubstituteSpokenForms(TokenizeTranscript(c.in))
		if !eqSlice(got, c.want) {
			t.Errorf("SubstituteSpokenForms(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}
