package literal

import (
	"slices"
	"strings"
	"testing"

	"speakql/internal/grammar"
)

func employeesCatalog() *Catalog {
	return NewCatalog(
		[]string{"Employees", "Salaries", "Titles", "DepartmentEmployee", "DepartmentManager", "Departments"},
		[]string{"FirstName", "LastName", "Salary", "Gender", "BirthDate", "HireDate",
			"FromDate", "ToDate", "Title", "EmployeeNumber", "DepartmentNumber", "DepartmentName"},
		[]string{"John", "Jon", "Karsten", "Tomokazu", "Goh", "Narain", "Perla",
			"Shimshon", "Engineer", "Senior Engineer", "Staff", "M", "F", "d002", "d005"},
	)
}

func fields(s string) []string { return strings.Fields(s) }

func TestCatalogBasics(t *testing.T) {
	c := employeesCatalog()
	if len(c.Tables()) != 6 {
		t.Errorf("Tables = %v", c.Tables())
	}
	if !c.HasTable("employees") || c.HasTable("Nope") {
		t.Error("HasTable wrong")
	}
	if !c.HasAttribute("salary") {
		t.Error("HasAttribute wrong")
	}
	if tables, attrs, values := c.Sizes(); tables != len(c.Tables()) ||
		attrs != len(c.Attributes()) || values != len(c.Values()) {
		t.Errorf("Sizes = %d, %d, %d, want %d, %d, %d", tables, attrs, values,
			len(c.Tables()), len(c.Attributes()), len(c.Values()))
	}
	// Duplicates collapse.
	d := NewCatalog([]string{"A", "A", ""}, nil, nil)
	if len(d.Tables()) != 1 {
		t.Errorf("duplicate tables kept: %v", d.Tables())
	}
}

// The running example of Figure 4: TransOut "SELECT first name FROM
// employers", BestStruct "SELECT x1 FROM x2" → x1=FirstName, x2=Employees.
func TestFigure4(t *testing.T) {
	c := employeesCatalog()
	bs := Determine(
		fields("SELECT first name FROM employers"),
		fields("SELECT x1 FROM x2"),
		c, 3)
	if len(bs) != 2 {
		t.Fatalf("got %d bindings", len(bs))
	}
	if bs[0].Best() != "FirstName" {
		t.Errorf("x1 = %q (topk %v), want FirstName", bs[0].Best(), bs[0].TopK)
	}
	if bs[0].Category != grammar.CatAttr {
		t.Errorf("x1 category = %v", bs[0].Category)
	}
	if bs[1].Best() != "Employees" {
		t.Errorf("x2 = %q (topk %v), want Employees", bs[1].Best(), bs[1].TopK)
	}
	if bs[1].Category != grammar.CatTable {
		t.Errorf("x2 category = %v", bs[1].Category)
	}
}

// Appendix E.2 Example 1: enumerated strings {FRONT, DATE, FRONTDATE}
// against {FROMDATE, TODATE} must pick FROMDATE by voting, even though the
// single pair (DATE, TODATE) has the minimum distance.
func TestVotingExample1(t *testing.T) {
	cat := NewCatalog(nil, []string{"FromDate", "ToDate"}, nil)
	bs := Determine(
		fields("SELECT front date FROM x"),
		fields("SELECT x1 FROM x2"),
		cat, 2)
	if bs[0].Best() != "FromDate" {
		t.Errorf("Example 1: got %q (topk %v), want FromDate", bs[0].Best(), bs[0].TopK)
	}
}

// Appendix E.2 Example 2: {RUM, DATE, RUMDATE} must also resolve to
// FROMDATE — RUM breaks the tie.
func TestVotingExample2(t *testing.T) {
	cat := NewCatalog(nil, []string{"FromDate", "ToDate"}, nil)
	bs := Determine(
		fields("SELECT rum date FROM x"),
		fields("SELECT x1 FROM x2"),
		cat, 2)
	if bs[0].Best() != "FromDate" {
		t.Errorf("Example 2: got %q (topk %v), want FromDate", bs[0].Best(), bs[0].TopK)
	}
}

func TestRunningExampleEndToEnd(t *testing.T) {
	// Figure 2: "select sales from employers wear name equals Jon" with
	// structure SELECT x1 FROM x2 WHERE x3 = x4.
	c := employeesCatalog()
	bs := Determine(
		fields("SELECT sales FROM employers wear name = Jon"),
		fields("SELECT x1 FROM x2 WHERE x3 = x4"),
		c, 3)
	if len(bs) != 4 {
		t.Fatalf("got %d bindings: %+v", len(bs), bs)
	}
	if bs[0].Best() != "Salary" {
		t.Errorf("x1 = %q, want Salary (phonetically closest to sales)", bs[0].Best())
	}
	if bs[1].Best() != "Employees" {
		t.Errorf("x2 = %q, want Employees", bs[1].Best())
	}
	// x3's window contains "wear name": voting should find a name-ish
	// attribute. FirstName or LastName both acceptable.
	if x3 := bs[2].Best(); !strings.Contains(x3, "Name") {
		t.Errorf("x3 = %q, want a *Name attribute", x3)
	}
	if bs[3].Best() != "Jon" {
		t.Errorf("x4 = %q, want Jon", bs[3].Best())
	}
}

func TestNumberMerging(t *testing.T) {
	c := employeesCatalog()
	// ASR re-segmented 45310 into "45000 310" (Table 1).
	bs := Determine(
		fields("SELECT salary FROM salaries WHERE salary > 45000 310"),
		fields("SELECT x1 FROM x2 WHERE x3 > x4"),
		c, 1)
	if got := bs[3].Best(); got != "45310" {
		t.Errorf("merged number = %q, want 45310", got)
	}
	// Digit-split "1 7 2 9".
	bs = Determine(
		fields("SELECT salary FROM salaries WHERE id = 1 7 2 9"),
		fields("SELECT x1 FROM x2 WHERE x3 = x4"),
		c, 1)
	if got := bs[3].Best(); got != "1729" {
		t.Errorf("digit-merged number = %q, want 1729", got)
	}
	// Spoken words that survived ITN-less.
	bs = Determine(
		fields("SELECT salary FROM salaries WHERE salary > seventy thousand"),
		fields("SELECT x1 FROM x2 WHERE x3 > x4"),
		c, 1)
	if got := bs[3].Best(); got != "70000" {
		t.Errorf("spoken number = %q, want 70000", got)
	}
}

func TestDateReassembly(t *testing.T) {
	c := employeesCatalog()
	// Normalized ASR date.
	bs := Determine(
		fields("SELECT fromdate FROM salaries WHERE fromdate = january 20 1993"),
		fields("SELECT x1 FROM x2 WHERE x3 = x4"),
		c, 1)
	if got := bs[3].Best(); got != "1993-01-20" {
		t.Errorf("date = %q, want 1993-01-20", got)
	}
	// Mangled Table 1 date.
	bs = Determine(
		fields("SELECT fromdate FROM salaries WHERE fromdate = may 07 90 91"),
		fields("SELECT x1 FROM x2 WHERE x3 = x4"),
		c, 1)
	if got := bs[3].Best(); got != "1991-05-07" {
		t.Errorf("mangled date = %q, want 1991-05-07", got)
	}
	// Spoken-word date.
	bs = Determine(
		fields("SELECT fromdate FROM salaries WHERE fromdate = march twentieth nineteen ninety"),
		fields("SELECT x1 FROM x2 WHERE x3 = x4"),
		c, 1)
	if got := bs[3].Best(); got != "1990-03-20" {
		t.Errorf("spoken date = %q, want 1990-03-20", got)
	}
}

func TestLimitBinding(t *testing.T) {
	c := employeesCatalog()
	bs := Determine(
		fields("SELECT star FROM employees LIMIT 10"),
		fields("SELECT x1 FROM x2 LIMIT x3"),
		c, 1)
	last := bs[len(bs)-1]
	if last.Category != grammar.CatLimit || last.Best() != "10" {
		t.Errorf("limit binding = %+v", last)
	}
}

func TestInListValues(t *testing.T) {
	c := employeesCatalog()
	bs := Determine(
		fields("SELECT fromdate FROM employees WHERE firstname IN ( tomokazu , go , narain )"),
		fields("SELECT x1 FROM x2 WHERE x3 IN ( x4 , x5 , x6 )"),
		c, 1)
	if len(bs) != 6 {
		t.Fatalf("got %d bindings", len(bs))
	}
	if bs[3].Best() != "Tomokazu" {
		t.Errorf("x4 = %q", bs[3].Best())
	}
	if bs[4].Best() != "Goh" {
		t.Errorf("x5 = %q (heard as 'go')", bs[4].Best())
	}
	if bs[5].Best() != "Narain" {
		t.Errorf("x6 = %q", bs[5].Best())
	}
}

func TestFallbackOnEmptyWindow(t *testing.T) {
	c := employeesCatalog()
	// The transcript is missing everything after FROM; the trailing
	// placeholders must still get deterministic fallback bindings.
	bs := Determine(
		fields("SELECT salary FROM"),
		fields("SELECT x1 FROM x2 WHERE x3 = x4"),
		c, 2)
	if len(bs) != 4 {
		t.Fatalf("got %d bindings", len(bs))
	}
	for _, b := range bs[1:] {
		if b.Best() == "" {
			t.Errorf("empty binding for %s", b.Placeholder)
		}
	}
}

func TestTopKRanked(t *testing.T) {
	c := employeesCatalog()
	// "birth date" is a split identifier whose first chunk is not a SQL
	// keyword (unlike "from date", the genuinely-hard Table 1 case).
	bs := Determine(
		fields("SELECT birth date FROM salaries"),
		fields("SELECT x1 FROM x2"),
		c, 3)
	if len(bs[0].TopK) < 2 {
		t.Fatalf("want multiple candidates, got %v", bs[0].TopK)
	}
	if bs[0].TopK[0] != "BirthDate" {
		t.Errorf("top1 = %q, want BirthDate (topk %v)", bs[0].TopK[0], bs[0].TopK)
	}
}

func TestFillAndRenderSQL(t *testing.T) {
	c := employeesCatalog()
	structToks := fields("SELECT x1 FROM x2 WHERE x3 = x4")
	bs := Determine(fields("SELECT salary FROM employees WHERE firstname = Jon"), structToks, c, 1)
	filled := Fill(structToks, bs)
	want := "SELECT Salary FROM Employees WHERE FirstName = Jon"
	if got := strings.Join(filled, " "); got != want {
		t.Errorf("Fill = %q, want %q", got, want)
	}
	sql := RenderSQL(structToks, bs)
	if sql != "SELECT Salary FROM Employees WHERE FirstName = 'Jon'" {
		t.Errorf("RenderSQL = %q", sql)
	}
	// Numeric values are not quoted.
	bs2 := Determine(fields("SELECT salary FROM salaries WHERE salary > 70000"), structToksGT(), c, 1)
	sql2 := RenderSQL(structToksGT(), bs2)
	if sql2 != "SELECT Salary FROM Salaries WHERE Salary > 70000" {
		t.Errorf("RenderSQL numeric = %q", sql2)
	}
}

func structToksGT() []string { return fields("SELECT x1 FROM x2 WHERE x3 > x4") }

func TestMergeNumeral(t *testing.T) {
	cases := []struct {
		acc    int64
		digits string
		want   int64
	}{
		{0, "45000", 45000},
		{45000, "310", 45310},
		{45000, "412", 45412},
		{1, "7", 17},
		{17, "2", 172},
		{172, "9", 1729},
		{45000, "12", 45012},
	}
	acc := int64(0)
	_ = acc
	for _, c := range cases {
		var v int64
		for _, ch := range c.digits {
			v = v*10 + int64(ch-'0')
		}
		if got := mergeNumeral(c.acc, c.digits, v); got != c.want {
			t.Errorf("mergeNumeral(%d,%q) = %d, want %d", c.acc, c.digits, got, c.want)
		}
	}
}

func TestColumnAwareValueVoting(t *testing.T) {
	// Without column domains, "mary" competes against every value in the
	// catalog; with per-column domains, the bound attribute (FirstName)
	// restricts set B to first names.
	global := NewCatalog(
		[]string{"Employees"},
		[]string{"FirstName", "Title"},
		[]string{"Marie", "Mario", "Manager"},
	)
	column := NewCatalog(
		[]string{"Employees"},
		[]string{"FirstName", "Title"},
		[]string{"Marie", "Mario", "Manager"},
	).WithColumnValues(map[string][]string{
		"FirstName": {"Marie"},
		"Title":     {"Manager", "Mario"},
	})
	trans := fields("SELECT firstname FROM employees WHERE firstname = mario")
	structToks := fields("SELECT x1 FROM x2 WHERE x3 = x4")
	bg := Determine(trans, structToks, global, 1)
	bc := Determine(trans, structToks, column, 1)
	if bg[3].Best() != "Mario" {
		t.Errorf("global voting picked %q, want Mario", bg[3].Best())
	}
	// Column-aware: Mario is not in FirstName's domain; Marie is closest.
	if bc[3].Best() != "Marie" {
		t.Errorf("column-aware voting picked %q, want Marie", bc[3].Best())
	}
}

func TestWithColumnValuesFallback(t *testing.T) {
	cat := NewCatalog(nil, []string{"A"}, []string{"Global"}).
		WithColumnValues(map[string][]string{"B": {"Other"}})
	// Attribute A has no column domain → global set used.
	bs := Determine(fields("SELECT a FROM t WHERE a = global"),
		fields("SELECT x1 FROM x2 WHERE x3 = x4"), cat, 1)
	if bs[3].Best() != "Global" {
		t.Errorf("fallback to global set failed: %q", bs[3].Best())
	}
}

// TestWithColumnValuesMergesCaseVariants: a column named in two casings is
// one column, so its domain holds both lists, whichever key map iteration
// visits first.
func TestWithColumnValuesMergesCaseVariants(t *testing.T) {
	cat := NewCatalog(nil, []string{"City"}, nil).
		WithColumnValues(map[string][]string{"City": {"Phoenix"}, "city": {"Tempe"}})
	got := cat.ColumnValues()
	if len(got) != 1 || !slices.Equal(got["city"], []string{"Phoenix", "Tempe"}) {
		t.Fatalf("ColumnValues() = %v, want city: [Phoenix Tempe]", got)
	}
}

func TestMergeNumeralEdgeCases(t *testing.T) {
	cases := []struct {
		acc    int64
		digits string
		v      int64
		want   int64
	}{
		{0, "007", 7, 7},       // zero accumulator adopts the fragment's value
		{7, "007", 7, 7007},    // the fragment's printed width drives the shift,
		{7, "07", 7, 707},      // not its numeric value — "007" shifts by 1000
		{123, "45", 45, 12345}, // no trailing zeros → pure concatenation
		{450, "7", 7, 457},     // fits inside the single trailing zero → added
		{450, "50", 50, 45050}, // too wide for the zeros → concatenated
		{1000, "250", 250, 1250},
		{0, "0", 0, 0},
	}
	for _, c := range cases {
		if got := mergeNumeral(c.acc, c.digits, c.v); got != c.want {
			t.Errorf("mergeNumeral(%d, %q, %d) = %d, want %d", c.acc, c.digits, c.v, got, c.want)
		}
	}
}

func TestDetermineNumberEdgeCases(t *testing.T) {
	cases := []struct {
		window  []string
		base    int
		want    string // "" means: not recognized as a number
		wantPos int
	}{
		// Zero-prefixed numerals parse by value; the leading zeros only
		// matter as concatenation width for later fragments.
		{fields("007"), 0, "7", 0},
		{fields("007 5"), 0, "75", 1},
		// A bare scale word is a complete spoken number.
		{fields("thousand"), 0, "1000", 0},
		{fields("thousand engineer"), 2, "1000", 2},
		// "oh" is the spoken zero.
		{fields("oh"), 0, "0", 0},
		// The numeral run stops at the first non-number token.
		{fields("45000 310 engineer"), 1, "45310", 2},
		// Not numbers at all.
		{fields("engineer"), 0, "", 0},
		{nil, 3, "", 3},
	}
	for _, c := range cases {
		tops, pos := determineNumber(c.window, c.base)
		got := ""
		if len(tops) > 0 {
			got = tops[0]
		}
		if got != c.want || (c.want != "" && pos != c.wantPos) {
			t.Errorf("determineNumber(%q, %d) = (%q, %d), want (%q, %d)",
				c.window, c.base, got, pos, c.want, c.wantPos)
		}
	}
}
