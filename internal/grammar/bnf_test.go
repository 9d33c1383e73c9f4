package grammar

import (
	"math/rand"
	"strings"
	"testing"

	"speakql/internal/sqltoken"
)

// Every structure the generator emits must derive from the declarative
// grammar — the Earley recognizer is the membership oracle validating the
// compositional generator.
func TestGeneratorSoundAgainstBNF(t *testing.T) {
	n := 0
	err := Generate(TestScale(), func(toks []string) bool {
		n++
		if n%37 != 0 { // sample to keep the test fast
			return true
		}
		if !Derives(toks) {
			t.Fatalf("generated structure does not derive: %v", toks)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing generated")
	}
}

func TestRandomStructuresDerive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 300; i++ {
		s := RandomStructure(rng, TestScale())
		if !Derives(s) {
			t.Fatalf("random structure does not derive: %v", s)
		}
	}
}

func TestDerivesExamples(t *testing.T) {
	good := []string{
		"SELECT x FROM x",
		"SELECT * FROM x",
		"SELECT x , x FROM x , x WHERE x = x AND x < x",
		"SELECT AVG ( x ) FROM x WHERE x BETWEEN x AND x",
		"SELECT COUNT ( * ) FROM x NATURAL JOIN x GROUP BY x",
		"SELECT x , COUNT ( * ) FROM x GROUP BY x",
		"SELECT x FROM x WHERE x . x = x . x ORDER BY x . x",
		"SELECT x FROM x WHERE x IN ( x , x , x ) ",
		"SELECT x FROM x WHERE x = x LIMIT x",
		"SELECT x FROM x LIMIT x",
		"select x from x where x = x", // case-insensitive keywords
	}
	for _, g := range good {
		if !Derives(strings.Fields(g)) {
			t.Errorf("Derives(%q) = false, want true", g)
		}
	}
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM x",
		"SELECT x",
		"SELECT x FROM",
		"FROM x SELECT x",
		"SELECT x FROM x WHERE",
		"SELECT x FROM x WHERE x",
		"SELECT x FROM x WHERE x =",
		"SELECT x FROM x WHERE x = x AND",
		"SELECT x FROM x x x = x", // the running example's masked transcript
		"SELECT x FROM x WHERE x BETWEEN x",
		"SELECT x x FROM x",
		"SELECT AVG ( x FROM x",
	}
	for _, b := range bad {
		if Derives(strings.Fields(b)) {
			t.Errorf("Derives(%q) = true, want false", b)
		}
	}
}

// The masked forms of the paper's Table 6 ground-truth queries (which our
// grammar extensions exist to cover) must derive — except Q7 and Q12, whose
// four-item select lists and triple predicates exceed every generation
// bound but still derive from the unbounded grammar, which is exactly the
// point of having the recognizer.
func TestTable6MaskedDerive(t *testing.T) {
	queries := []string{
		"SELECT AVG ( salary ) FROM Salaries",
		"SELECT Lastname FROM Employees NATURAL JOIN Salaries WHERE Salary > 70000",
		"SELECT FromDate FROM DepartmentEmployee WHERE DepartmentNumber = 'd002'",
		"SELECT FromDate FROM Employees NATURAL JOIN DepartmentManager WHERE FirstName = 'Karsten' ORDER BY HireDate",
		"SELECT SUM ( salary ) FROM Salaries WHERE FromDate = '1993-01-20'",
		"SELECT ToDate , COUNT ( salary ) FROM Salaries GROUP BY ToDate",
		"SELECT ToDate , MAX ( salary ) , COUNT ( salary ) , MIN ( salary ) FROM Salaries WHERE FromDate = '1990-03-20' GROUP BY ToDate",
		"SELECT FromDate , salary , ToDate FROM Employees NATURAL JOIN Salaries WHERE FirstName IN ( 'Tomokazu' , 'Goh' , 'Narain' , 'Perla' , 'Shimshon' )",
		"SELECT FirstName , AVG ( salary ) FROM Employees , Salaries , DepartmentManager WHERE Employees . EmployeeNumber = Salaries . EmployeeNumber AND Employees . EmployeeNumber = DepartmentManager . EmployeeNumber GROUP BY Employees . FirstName",
		"SELECT * FROM Employees NATURAL JOIN Titles WHERE ToDate = '2001-10-09' OR HireDate = '1996-05-10' OR title = 'Engineer' LIMIT 10",
		"SELECT Gender , AVG ( salary ) , MAX ( salary ) FROM Employees NATURAL JOIN Salaries GROUP BY Employees . Gender",
		"SELECT Gender , BirthDate , salary FROM Employees , Salaries , DepartmentManager WHERE Employees . EmployeeNumber = Salaries . EmployeeNumber AND Employees . EmployeeNumber = DepartmentManager . EmployeeNumber ORDER BY Employees . FirstName",
	}
	for i, q := range queries {
		masked := sqltoken.MaskGeneric(sqltoken.TokenizeSQL(q))
		if !Derives(masked) {
			t.Errorf("Table 6 Q%d masked form does not derive: %v", i+1, masked)
		}
	}
}

// Bounded-generation completeness: at test scale, everything that derives
// AND respects the bounds is generated. Spot-checked by verifying a few
// known in-bounds derivable strings appear in the corpus.
func TestGenerateCoversDerivableInBounds(t *testing.T) {
	corpus := map[string]bool{}
	if err := Generate(TestScale(), func(toks []string) bool {
		corpus[strings.Join(toks, " ")] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	inBounds := []string{
		"SELECT x , x FROM x , x WHERE x = x",
		"SELECT MIN ( x ) FROM x NATURAL JOIN x ORDER BY x . x",
		"SELECT COUNT ( * ) , COUNT ( * ) FROM x",
	}
	for _, s := range inBounds {
		if !Derives(strings.Fields(s)) {
			t.Fatalf("test string %q does not derive; fix the test", s)
		}
		if !corpus[s] {
			t.Errorf("derivable in-bounds structure missing from corpus: %q", s)
		}
	}
}

// The Box 1 grammar (Appendix C) in declarative form: the production rules
// as data, and an Earley recognizer over them. The paper deliberately
// inverts parsing — it generates all strings and searches — because
// "deterministic parsing will almost always fail" on ASR output, so the
// recognizer is not on the query path: it is the grammar's ground truth,
// the membership oracle the tests above use to validate that everything
// the generator emits (and everything structure determination returns)
// actually derives from the productions.

// Symbol is a grammar symbol: terminals are literal token strings
// (uppercase keywords, special characters, or the literal symbol "x");
// nonterminals start with '$'.
type Symbol = string

// Production is one rule: Lhs → Rhs.
type Production struct {
	Lhs Symbol
	Rhs []Symbol
}

// Productions returns the grammar of Box 1 with this module's two
// documented extensions (NATURAL JOIN chains; bare CLS/LMT tails without
// WHERE; COUNT(*) in later select positions). Nonterminal names follow the
// paper's.
func Productions() []Production {
	p := func(lhs string, rhs ...string) Production {
		return Production{Lhs: lhs, Rhs: rhs}
	}
	var rules []Production
	add := func(ps ...Production) { rules = append(rules, ps...) }

	// Q → S F | S F W | S F TC            (TC: extension)
	add(
		p("$Q", "$S", "$F"),
		p("$Q", "$S", "$F", "$W"),
		p("$Q", "$S", "$F", "$TC"),
	)
	// S → SELECT (star | item list)
	add(
		p("$S", "SELECT", "*"),
		p("$S", "SELECT", "$ITEM1"),
		p("$S", "SELECT", "$ITEM1", "$C"),
	)
	// First item: L, aggregate, COUNT(*).
	add(
		p("$ITEM1", "x"),
		p("$ITEM1", "$AGGF"),
		p("$ITEM1", "COUNT", "(", "*", ")"),
	)
	for _, op := range aggOps {
		add(p("$AGGF", op, "(", "x", ")"))
	}
	// C → , item | C , item                (COUNT(*) extension included)
	add(
		p("$C", ",", "$ITEMR"),
		p("$C", "$C", ",", "$ITEMR"),
		p("$ITEMR", "x"),
		p("$ITEMR", "$AGGF"),
		p("$ITEMR", "COUNT", "(", "*", ")"),
	)
	// F → FROM table (, table)* | FROM table (NATURAL JOIN table)*
	add(
		p("$F", "FROM", "x"),
		p("$F", "FROM", "x", "$CF"),
		p("$F", "FROM", "x", "$NJ"),
		p("$CF", ",", "x"),
		p("$CF", "$CF", ",", "x"),
		p("$NJ", "NATURAL", "JOIN", "x"),
		p("$NJ", "$NJ", "NATURAL", "JOIN", "x"),
	)
	// W → WHERE WD | WHERE AGG
	add(
		p("$W", "WHERE", "$WD"),
		p("$W", "WHERE", "$AGG"),
	)
	// WD → EXP | EXP AND WD | EXP OR WD
	add(
		p("$WD", "$EXP"),
		p("$WD", "$EXP", "AND", "$WD"),
		p("$WD", "$EXP", "OR", "$WD"),
	)
	// EXP → operand OP operand; operands are L or WDD (x . x).
	for _, op := range cmpOps {
		add(
			p("$EXP", "$OPND", op, "$OPND"),
		)
	}
	add(
		p("$OPND", "x"),
		p("$OPND", "$WDD"),
		p("$WDD", "x", ".", "x"),
	)
	// AGG → WD CLS target | WD LMT L | BETWEEN and IN forms.
	add(
		p("$AGG", "$WD", "$CLS", "$OPND"),
		p("$AGG", "$WD", "LIMIT", "x"),
		p("$AGG", "x", "BETWEEN", "x", "AND", "x"),
		p("$AGG", "x", "NOT", "BETWEEN", "x", "AND", "x"),
		p("$AGG", "x", "IN", "(", "x", ")"),
		p("$AGG", "x", "IN", "(", "x", "$CS", ")"),
		p("$CS", ",", "x"),
		p("$CS", "$CS", ",", "x"),
	)
	// CLS → ORDER BY | GROUP BY
	add(
		p("$CLS", "ORDER", "BY"),
		p("$CLS", "GROUP", "BY"),
	)
	// TC → CLS target | LIMIT L          (extension: tails without WHERE)
	add(
		p("$TC", "$CLS", "$OPND"),
		p("$TC", "LIMIT", "x"),
	)
	return rules
}

// Derives reports whether the token sequence derives from $Q under
// Productions(), using an Earley recognizer. Placeholder tokens (x, x1,
// x2, …) all match the literal symbol.
func Derives(tokens []string) bool {
	return earley(Productions(), "$Q", normalizeForParse(tokens))
}

func normalizeForParse(tokens []string) []string {
	out := make([]string, len(tokens))
	for i, t := range tokens {
		if isLitToken(t) {
			out[i] = "x"
		} else {
			out[i] = canonUpper(t)
		}
	}
	return out
}

func canonUpper(t string) string {
	// Keywords are uppercased; splchars pass through.
	if len(t) == 1 {
		return t
	}
	b := []byte(t)
	for i := range b {
		if b[i] >= 'a' && b[i] <= 'z' {
			b[i] -= 'a' - 'A'
		}
	}
	return string(b)
}

// earley is a standard Earley recognizer (no parse-tree construction).
type earleyItem struct {
	prod   int // index into rules
	dot    int
	origin int
}

func earley(rules []Production, start Symbol, input []string) bool {
	byLhs := map[Symbol][]int{}
	for i, r := range rules {
		byLhs[r.Lhs] = append(byLhs[r.Lhs], i)
	}
	n := len(input)
	chart := make([][]earleyItem, n+1)
	seen := make([]map[earleyItem]bool, n+1)
	for i := range seen {
		seen[i] = map[earleyItem]bool{}
	}
	push := func(k int, it earleyItem) {
		if !seen[k][it] {
			seen[k][it] = true
			chart[k] = append(chart[k], it)
		}
	}
	for _, pi := range byLhs[start] {
		push(0, earleyItem{prod: pi})
	}
	for k := 0; k <= n; k++ {
		for idx := 0; idx < len(chart[k]); idx++ {
			it := chart[k][idx]
			rule := rules[it.prod]
			if it.dot < len(rule.Rhs) {
				sym := rule.Rhs[it.dot]
				if len(sym) > 0 && sym[0] == '$' {
					// Predict.
					for _, pi := range byLhs[sym] {
						push(k, earleyItem{prod: pi, origin: k})
					}
				} else if k < n && input[k] == sym {
					// Scan.
					push(k+1, earleyItem{prod: it.prod, dot: it.dot + 1, origin: it.origin})
				}
				continue
			}
			// Complete.
			lhs := rule.Lhs
			for _, parent := range chart[it.origin] {
				pr := rules[parent.prod]
				if parent.dot < len(pr.Rhs) && pr.Rhs[parent.dot] == lhs {
					push(k, earleyItem{prod: parent.prod, dot: parent.dot + 1, origin: parent.origin})
				}
			}
		}
	}
	for _, it := range chart[n] {
		rule := rules[it.prod]
		if rule.Lhs == start && it.dot == len(rule.Rhs) && it.origin == 0 {
			return true
		}
	}
	return false
}
