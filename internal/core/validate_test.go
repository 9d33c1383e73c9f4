package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"speakql/internal/faultinject"
	"speakql/internal/obs"
	"speakql/internal/sqlengine"
)

// validateTestDB builds a small database matching testEngineConfig's
// catalog, so corrected candidates can actually bind and run.
func validateTestDB() *sqlengine.Database {
	db := sqlengine.NewDatabase("employees")
	emp := db.CreateTable("Employees",
		sqlengine.Column{Name: "EmployeeNumber", Type: sqlengine.IntCol},
		sqlengine.Column{Name: "FirstName", Type: sqlengine.StringCol},
		sqlengine.Column{Name: "LastName", Type: sqlengine.StringCol},
		sqlengine.Column{Name: "Gender", Type: sqlengine.StringCol},
		sqlengine.Column{Name: "HireDate", Type: sqlengine.DateCol},
	)
	sal := db.CreateTable("Salaries",
		sqlengine.Column{Name: "EmployeeNumber", Type: sqlengine.IntCol},
		sqlengine.Column{Name: "Salary", Type: sqlengine.IntCol},
		sqlengine.Column{Name: "FromDate", Type: sqlengine.DateCol},
		sqlengine.Column{Name: "ToDate", Type: sqlengine.DateCol},
	)
	for _, r := range []struct {
		num         int64
		first, last string
		g, hire     string
	}{
		{1, "John", "Smith", "M", "1990-01-15"},
		{2, "Jon", "Jones", "M", "1992-03-20"},
		{3, "Karsten", "Lee", "M", "1996-05-10"},
	} {
		if err := emp.Insert(sqlengine.Int(r.num), sqlengine.Str(r.first),
			sqlengine.Str(r.last), sqlengine.Str(r.g), sqlengine.DateVal(r.hire)); err != nil {
			panic(err)
		}
	}
	for _, r := range []struct{ num, s int64 }{{1, 60000}, {2, 75000}, {3, 80000}} {
		if err := sal.Insert(sqlengine.Int(r.num), sqlengine.Int(r.s),
			sqlengine.DateVal("1993-01-20"), sqlengine.DateVal("1994-01-20")); err != nil {
			panic(err)
		}
	}
	return db
}

// validatingEngine shares the package test engine's structure component so
// construction stays cheap, then installs a validation stage on the copy.
func validatingEngine(t *testing.T, mode ValidationMode) *Engine {
	t.Helper()
	base := engine(t)
	e := NewEngineWithComponent(base.StructureComponent(), base.Catalog(), base.kLiterals)
	e.SetValidation(ValidationConfig{Mode: mode}, validateTestDB())
	return e
}

// comparable strips the timing fields that legitimately differ between two
// runs of the same correction.
func comparable(out Output) Output {
	out.StructureLatency, out.LiteralLatency, out.ValidateLatency = 0, 0, 0
	return out
}

func TestValidationOffIsBitIdentical(t *testing.T) {
	base := engine(t)
	off := NewEngineWithComponent(base.StructureComponent(), base.Catalog(), base.kLiterals)
	off.SetValidation(ValidationConfig{Mode: ValidationOff}, validateTestDB())
	transcripts := []string{
		"select sales from employers wear name equals Jon",
		"select average salary from salaries",
		"total gibberish that matches nothing at all",
	}
	for _, tr := range transcripts {
		want := comparable(base.CorrectTopK(tr, 5))
		got := comparable(off.CorrectTopK(tr, 5))
		if !reflect.DeepEqual(want, got) {
			t.Errorf("validation-off output differs for %q:\n base: %+v\n  off: %+v", tr, want, got)
		}
	}
	if off.ValidationMode() != ValidationOff {
		t.Fatalf("ValidationMode = %s, want off", off.ValidationMode())
	}
}

func TestValidationModeRequiresDB(t *testing.T) {
	base := engine(t)
	e := NewEngineWithComponent(base.StructureComponent(), base.Catalog(), base.kLiterals)
	e.SetValidation(ValidationConfig{Mode: ValidationBind}, nil)
	if e.ValidationMode() != ValidationOff {
		t.Fatalf("ValidationMode with nil db = %s, want off", e.ValidationMode())
	}
	out := e.Correct("select sales from employers")
	if out.Validation != "" || out.Best().Verdict != "" {
		t.Fatalf("nil-db engine validated anyway: %+v", out)
	}
}

func TestValidationAssignsVerdicts(t *testing.T) {
	e := validatingEngine(t, ValidationBind)
	out := e.CorrectTopK("select first name from employees where gender equals M", 5)
	if out.Validation != string(ValidationBind) {
		t.Fatalf("Validation = %q, want %q (degradation %s)", out.Validation, ValidationBind, out.Degradation)
	}
	if out.ValidateLatency <= 0 {
		t.Error("ValidateLatency not recorded")
	}
	for i, c := range out.Candidates {
		if c.Verdict == "" {
			t.Errorf("candidate %d (%q) has no verdict", i, c.SQL)
		}
	}
	if best := out.Best(); best.Verdict != string(sqlengine.VerdictOK) {
		t.Errorf("best candidate verdict = %q for %q, want ok", best.Verdict, best.SQL)
	}
	// Verdict classes must be non-decreasing down the ranking.
	last := -1
	for _, c := range out.Candidates {
		r := sqlengine.VerdictRank(sqlengine.Verdict(c.Verdict))
		if r < last {
			t.Fatalf("ranking not sorted by verdict class: %+v", out.Candidates)
		}
		last = r
	}
}

func TestValidationBindMode(t *testing.T) {
	e := validatingEngine(t, ValidationBind)
	out := e.CorrectTopK("select first name from employees", 3)
	if out.Validation != string(ValidationBind) {
		t.Fatalf("Validation = %q, want bind", out.Validation)
	}
	for _, c := range out.Candidates {
		switch sqlengine.Verdict(c.Verdict) {
		case sqlengine.VerdictOK, sqlengine.VerdictBindError, sqlengine.VerdictParseError:
		default:
			t.Errorf("bind mode produced verdict %q for %q", c.Verdict, c.SQL)
		}
	}
}

func TestRerankByVerdict(t *testing.T) {
	cands := []Candidate{
		{SQL: "A", Verdict: string(sqlengine.VerdictParseError)},
		{SQL: "B", Verdict: string(sqlengine.VerdictOK)},
		{SQL: "C", Verdict: string(sqlengine.VerdictOK)},
		{SQL: "D"}, // never validated
	}
	demoted := rerankByVerdict(cands)
	gotOrder := []string{cands[0].SQL, cands[1].SQL, cands[2].SQL, cands[3].SQL}
	if strings.Join(gotOrder, "") != "BCDA" {
		t.Fatalf("order = %v, want [B C D A]", gotOrder)
	}
	if demoted != 1 || !cands[3].Demoted {
		t.Fatalf("demotions = %d (A demoted = %v), want exactly A demoted", demoted, cands[3].Demoted)
	}
	for _, c := range cands[:3] {
		if c.Demoted {
			t.Errorf("candidate %s wrongly flagged demoted", c.SQL)
		}
	}

	// All candidates tying (any class) must be a no-op preserving order.
	tied := []Candidate{
		{SQL: "X", Verdict: string(sqlengine.VerdictBindError)},
		{SQL: "Y", Verdict: string(sqlengine.VerdictBindError)},
	}
	if d := rerankByVerdict(tied); d != 0 || tied[0].SQL != "X" || tied[1].SQL != "Y" {
		t.Fatalf("tied re-rank changed something: %+v (demoted %d)", tied, d)
	}

	// Unknown ranks between ok and provable failure.
	mixed := []Candidate{
		{SQL: "P", Verdict: string(sqlengine.VerdictBindError)},
		{SQL: "Q"}, // never validated
		{SQL: "R", Verdict: string(sqlengine.VerdictOK)},
	}
	rerankByVerdict(mixed)
	if mixed[0].SQL != "R" || mixed[1].SQL != "Q" || mixed[2].SQL != "P" {
		t.Fatalf("mixed order = %+v, want R Q P", mixed)
	}
}

// A request whose deadline passed before the stage ran sheds validation:
// the response carries no verdicts, keeps its unvalidated order, and counts
// under validate.shed.expired.
func TestValidationShedsUnderDeadlinePressure(t *testing.T) {
	e := validatingEngine(t, ValidationBind)
	base := e.CorrectTopK("select first name from employees", 3)
	if base.Validation != string(ValidationBind) {
		t.Fatalf("Validation = %q, want bind", base.Validation)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	out := Output{Candidates: append([]Candidate(nil), base.Candidates...)}
	for i := range out.Candidates {
		out.Candidates[i].Verdict, out.Candidates[i].Demoted = "", false
	}
	before := obs.Default().Snapshot().Counters["validate.shed.expired"]
	e.maybeValidate(expired, &out)
	if got := obs.Default().Snapshot().Counters["validate.shed.expired"] - before; got != 1 {
		t.Errorf("validate.shed.expired moved by %d, want 1", got)
	}
	if out.Validation != ValidationShed {
		t.Fatalf("Validation = %q, want shed", out.Validation)
	}
	for _, cand := range out.Candidates {
		if cand.Verdict != "" || cand.Demoted {
			t.Fatalf("shed response carries verdicts: %+v", cand)
		}
	}
}

func TestValidationShedsOnInjectedFault(t *testing.T) {
	inj, err := faultinject.Parse("validate:error@1;seed=3")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)
	defer faultinject.Set(nil)

	e := validatingEngine(t, ValidationBind)
	out := e.CorrectTopK("select first name from employees", 3)
	if out.Validation != ValidationShed {
		t.Fatalf("Validation = %q, want shed under injected fault", out.Validation)
	}
	if len(out.Candidates) == 0 || out.Degradation != DegradationFull {
		t.Fatalf("fault must shed validation only, not the response: %+v", out)
	}
	if got := inj.Counts()[faultinject.StageValidate]; got.Errors == 0 {
		t.Fatalf("injector never fired: %+v", got)
	}
}

func TestParseValidationMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want ValidationMode
		ok   bool
	}{
		{"off", ValidationOff, true},
		{"", ValidationOff, true},
		{"bind", ValidationBind, true},
		{"execute", ValidationOff, false},
		{"extreme", ValidationOff, false},
	} {
		got, ok := ParseValidationMode(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseValidationMode(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
}
