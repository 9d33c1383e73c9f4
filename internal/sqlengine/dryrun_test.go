package sqlengine

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestDryRunVerdicts(t *testing.T) {
	db := testDB()
	cases := []struct {
		sql  string
		want Verdict
	}{
		{"SELECT FirstName FROM Employees", VerdictOK},
		{"SELECT FROM WHERE", VerdictParseError},
		{"SELECT FirstName FROM Employers", VerdictBindError},
		{"SELECT Salary FROM Employees", VerdictBindError},
		{"SELECT FirstName FROM Employees WHERE Wage > 100", VerdictBindError},
		// Binding never executes: a provably empty query is still ok.
		{"SELECT FirstName FROM Employees WHERE Gender = 'X'", VerdictOK},
		// Subquery operands bind against their own FROM list.
		{"SELECT FirstName FROM Employees WHERE EmployeeNumber IN " +
			"( SELECT EmployeeNumber FROM Salaries WHERE Salary > 70000 )", VerdictOK},
		{"SELECT FirstName FROM Employees WHERE EmployeeNumber IN " +
			"( SELECT EmployeeNumber FROM Wages )", VerdictBindError},
	}
	for _, c := range cases {
		if got := DryRun(db, c.sql); got != c.want {
			t.Errorf("DryRun(%q) = %s, want %s", c.sql, got, c.want)
		}
	}
}

// numbersDB holds one single-column table N with rows 0..n-1.
func numbersDB(t *testing.T, n int) *Database {
	t.Helper()
	db := NewDatabase("numbers")
	tbl := db.CreateTable("N", Column{"V", IntCol})
	for i := 0; i < n; i++ {
		if err := tbl.Insert(Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestBudgetChargesJoinWork(t *testing.T) {
	// 40 rows each side stay under one check interval, but the cross
	// product's 1,600 output rows cross it: a done context can only stop
	// this run by charging the join's output.
	db := numbersDB(t, 40)
	db.CreateTable("M", Column{"W", IntCol})
	m, _ := db.Table("M")
	for i := 0; i < 40; i++ {
		if err := m.Insert(Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	const sql = "SELECT V FROM N , M"
	if _, err := RunContext(cancelledCtx(), db, sql); !errors.Is(err, context.Canceled) {
		t.Fatalf("join under a cancelled context: err = %v, want context.Canceled", err)
	}
	if got := len(mustRun(t, db, sql).Rows); got != 1600 {
		t.Fatalf("join rows = %d, want 1600", got)
	}
}

func TestBudgetChargesSubqueryWork(t *testing.T) {
	// Each subquery runs once per run, not once per outer row: two levels of
	// IN over n rows charge three scans, two WHERE passes over n rows, and
	// two IN scans of n values per tested row — 2n²+5n, where re-running
	// the subqueries per row would charge about n³. A done context still
	// stops the run: its charges cross many check intervals.
	const n = 300
	db := numbersDB(t, n)
	const sql = "SELECT V FROM N WHERE V IN ( SELECT V FROM N WHERE V IN ( SELECT V FROM N ) )"
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	bud := &budget{ctx: context.Background()}
	res, err := execute(db, stmt, bud)
	if err != nil || len(res.Rows) != n {
		t.Fatalf("nested IN: %v rows, err %v; want %d rows", res, err, n)
	}
	if bound := int64(2*n*n + 5*n); bud.rows > bound {
		t.Fatalf("nested IN charged %d rows, want at most %d (one run per subquery)", bud.rows, bound)
	}
	if _, err := RunContext(cancelledCtx(), db, sql); !errors.Is(err, context.Canceled) {
		t.Fatalf("nested IN under a cancelled context: err = %v, want context.Canceled", err)
	}
}

// filterHeavy is a query whose every row scans an IN list of nvals values
// that never matches V.
func filterHeavy(nvals int) string {
	vals := make([]string, nvals)
	for i := range vals {
		vals[i] = strconv.Itoa(1_000_000 + i)
	}
	return "SELECT V FROM N WHERE V IN ( " + strings.Join(vals, " , ") + " )"
}

func TestBudgetChargesFilterWork(t *testing.T) {
	// 1,000 rows stay under one check interval, so only the WHERE clause's
	// work can cross it: 4·10⁷ IN-list comparisons unbounded. A done
	// context stops the run by its filter charges, and a deadline stops it
	// within a few check intervals.
	db := numbersDB(t, 1000)
	sql := filterHeavy(40_000)
	if _, err := RunContext(cancelledCtx(), db, sql); !errors.Is(err, context.Canceled) {
		t.Fatalf("filter under a cancelled context: err = %v, want context.Canceled", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, db, sql)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "execution stopped") {
		t.Fatalf("err = %v, want the executor's stop error", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("run stopped %v after start, want soon after its 20ms deadline", el)
	}
}

func TestBudgetExhaustionDoesNotLeak(t *testing.T) {
	db := numbersDB(t, budgetCheckRows+10)
	const sql = "SELECT V FROM N"
	want := len(mustRun(t, db, sql).Rows)

	// Stop runs repeatedly; the database must keep answering the same
	// query identically — all budget state lives in the run, none in db.
	for i := 0; i < 10; i++ {
		if _, err := RunContext(cancelledCtx(), db, sql); !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: err = %v, want context.Canceled", i, err)
		}
		if got := len(mustRun(t, db, sql).Rows); got != want {
			t.Fatalf("iteration %d: Run after a stopped run returned %d rows, want %d", i, got, want)
		}
		res, err := RunContext(context.Background(), db, sql)
		if err != nil || len(res.Rows) != want {
			t.Fatalf("iteration %d: RunContext(Background) = %v rows, %v", i, res, err)
		}
	}
}

func TestBudgetDeadline(t *testing.T) {
	// An expired deadline with enough rows to cross a check boundary must
	// stop the run with the context's error; a generous deadline is ok.
	db := numbersDB(t, budgetCheckRows+10)
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := RunContext(expired, db, "SELECT V FROM N"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
	ample, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	res, err := RunContext(ample, db, "SELECT V FROM N")
	if err != nil || len(res.Rows) != budgetCheckRows+10 {
		t.Fatalf("ample deadline: %d rows, err %v", len(res.Rows), err)
	}
}

func TestSchemaDatabaseBindsMembership(t *testing.T) {
	db := NewSchemaDatabase("tenant", []string{"Business", "Review"}, []string{"Name", "Stars"})
	cases := []struct {
		sql  string
		want Verdict
	}{
		{"SELECT Name FROM Business", VerdictOK},
		{"SELECT Stars FROM Review WHERE Name = 'x'", VerdictOK},
		{"SELECT Name FROM Salaries", VerdictBindError},
		{"SELECT Wage FROM Business", VerdictBindError},
	}
	for _, c := range cases {
		if got := DryRun(db, c.sql); got != c.want {
			t.Errorf("DryRun(%q) = %s, want %s", c.sql, got, c.want)
		}
	}
}

func TestVerdictRankLattice(t *testing.T) {
	order := []Verdict{VerdictOK, "", VerdictBindError, VerdictParseError}
	for i := 1; i < len(order); i++ {
		if VerdictRank(order[i-1]) >= VerdictRank(order[i]) {
			t.Fatalf("lattice order broken at %q >= %q", order[i-1], order[i])
		}
	}
	if VerdictRank("some_future_verdict") != VerdictRank("") {
		t.Fatal("an unknown verdict must rank with the unvalidated")
	}
}
