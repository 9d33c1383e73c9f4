package core

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"speakql/internal/asr"
	"speakql/internal/grammar"
	"speakql/internal/literal"
	"speakql/internal/metrics"
	"speakql/internal/speech"
)

var testEngine *Engine

func testEngineConfig() Config {
	cat := literal.NewCatalog(
		[]string{"Employees", "Salaries", "Titles", "DepartmentEmployee"},
		[]string{"FirstName", "LastName", "Salary", "Gender", "HireDate",
			"FromDate", "ToDate", "Title", "EmployeeNumber", "DepartmentNumber"},
		[]string{"John", "Jon", "Karsten", "Engineer", "M", "F", "d002"},
	)
	return Config{Grammar: grammar.TestScale(), Catalog: cat}
}

func engine(t testing.TB) *Engine {
	t.Helper()
	if testEngine == nil {
		e, err := NewEngine(testEngineConfig())
		if err != nil {
			t.Fatal(err)
		}
		testEngine = e
	}
	return testEngine
}

// The paper's Figure 2 running example, full pipeline.
func TestFigure2EndToEnd(t *testing.T) {
	out := engine(t).Correct("select sales from employers wear name equals Jon")
	best := out.Best()
	if got := strings.Join(best.Structure, " "); got != "SELECT x1 FROM x2 WHERE x3 = x4" {
		t.Fatalf("structure = %q", got)
	}
	toks := strings.Join(best.Tokens, " ")
	if !strings.HasPrefix(toks, "SELECT Salary FROM Employees WHERE") {
		t.Errorf("tokens = %q", toks)
	}
	if !strings.HasSuffix(best.SQL, "= 'Jon'") {
		t.Errorf("SQL = %q", best.SQL)
	}
	if out.StructureLatency <= 0 || out.LiteralLatency <= 0 {
		t.Error("latencies not recorded")
	}
}

func TestCleanDictationIsExact(t *testing.T) {
	// A perfectly transcribed dictation should come back as the original
	// query (modulo keyword casing).
	queries := []string{
		"SELECT AVG ( Salary ) FROM Salaries",
		"SELECT * FROM Employees WHERE Gender = 'M'",
		"SELECT FirstName FROM Employees NATURAL JOIN Salaries WHERE Salary > 70000",
		"SELECT LastName FROM Employees ORDER BY HireDate",
		"SELECT FromDate FROM DepartmentEmployee WHERE DepartmentNumber = 'd002'",
	}
	e := engine(t)
	for _, q := range queries {
		spoken := strings.Join(speech.VerbalizeQuery(q), " ")
		out := e.Correct(spoken)
		want := TokensOf(q)
		got := out.Best().Tokens
		if metrics.TokenEditDistance(want, got) != 0 {
			t.Errorf("clean dictation of %q → %q (TED %d)", q,
				strings.Join(got, " "), metrics.TokenEditDistance(want, got))
		}
	}
}

func TestCorrectTopK(t *testing.T) {
	out := engine(t).CorrectTopK("select salary from employees", 5)
	if len(out.Candidates) != 5 {
		t.Fatalf("got %d candidates", len(out.Candidates))
	}
	for i := 1; i < len(out.Candidates); i++ {
		if out.Candidates[i].StructureDistance < out.Candidates[i-1].StructureDistance {
			t.Fatal("candidates not sorted by structure distance")
		}
	}
}

func TestCorrectThroughNoisyASR(t *testing.T) {
	// End-to-end with the simulated ASR: SpeakQL must improve word recall
	// over the raw transcription on average.
	e := engine(t)
	eng := asr.NewEngine(asr.ACSProfile(), 99)
	queries := []string{
		"SELECT AVG ( Salary ) FROM Salaries",
		"SELECT FirstName FROM Employees WHERE Salary > 70000",
		"SELECT * FROM Employees WHERE Gender = 'M'",
		"SELECT LastName FROM Employees NATURAL JOIN Salaries WHERE FromDate = '1993-01-20'",
		"SELECT Title FROM Titles WHERE FirstName = 'Karsten' ORDER BY HireDate",
		"SELECT COUNT ( * ) FROM Employees GROUP BY Gender",
	}
	var asrWRR, sqlWRR float64
	n := 0
	for trial := 0; trial < 5; trial++ {
		for _, q := range queries {
			ref := TokensOf(q)
			spoken := speech.VerbalizeQuery(q)
			transcript := eng.TranscribeN(spoken, trial+1)[trial]
			rawToks := TokensOf(strings.Join(
				engineTranscriptTokens(e, transcript), " "))
			out := e.Correct(transcript)
			asrWRR += metrics.Compare(ref, rawToks).WRR
			sqlWRR += metrics.Compare(ref, out.Best().Tokens).WRR
			n++
		}
	}
	asrWRR /= float64(n)
	sqlWRR /= float64(n)
	t.Logf("ASR WRR=%.3f SpeakQL WRR=%.3f", asrWRR, sqlWRR)
	if sqlWRR <= asrWRR {
		t.Errorf("SpeakQL did not improve WRR: ASR %.3f vs SpeakQL %.3f", asrWRR, sqlWRR)
	}
	if sqlWRR < 0.7 {
		t.Errorf("SpeakQL WRR %.3f unreasonably low on simple queries", sqlWRR)
	}
}

// engineTranscriptTokens reproduces the ASR-only baseline tokens: the raw
// transcript after spoken-form substitution (what a user would see with no
// SpeakQL correction).
func engineTranscriptTokens(e *Engine, transcript string) []string {
	out := e.Correct(transcript)
	return out.Transcript
}

func TestEmptyAndDegenerateInput(t *testing.T) {
	e := engine(t)
	out := e.Correct("")
	if len(out.Candidates) == 0 {
		t.Fatal("no candidate for empty input")
	}
	out = e.Correct("blah blah blah")
	if len(out.Candidates) == 0 || len(out.Best().Tokens) == 0 {
		t.Fatal("no candidate for garbage input")
	}
}

func TestNewEngineDefaults(t *testing.T) {
	e := NewEngineWithComponent(engine(t).StructureComponent(), nil, 0)
	out := e.Correct("select star from employees")
	if got := strings.Join(out.Best().Structure, " "); got != "SELECT * FROM x1" {
		t.Errorf("structure = %q", got)
	}
}

func TestConcurrentCorrect(t *testing.T) {
	// The engine is shared across HTTP handlers and evaluation workers;
	// Correct must be safe under concurrency.
	e := engine(t)
	transcripts := []string{
		"select salary from employees where gender equals M",
		"select star from salaries",
		"select count open parenthesis star close parenthesis from titles",
		"select first name from employees order by hire date",
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tr := transcripts[(w+i)%len(transcripts)]
				out := e.Correct(tr)
				if len(out.Candidates) == 0 {
					errs <- "no candidates for " + tr
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

func TestCorrectDeterministic(t *testing.T) {
	e := engine(t)
	const tr = "select sales from employers wear name equals Jon"
	a := e.Correct(tr).Best()
	b := e.Correct(tr).Best()
	if a.SQL != b.SQL || strings.Join(a.Structure, " ") != strings.Join(b.Structure, " ") {
		t.Fatalf("non-deterministic correction: %q vs %q", a.SQL, b.SQL)
	}
}

func TestCorrectContextAlreadyCancelled(t *testing.T) {
	e := engine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	t0 := time.Now()
	out := e.CorrectContext(ctx, "select sales from employers wear name equals Jon")
	if el := time.Since(t0); el > time.Second {
		t.Errorf("cancelled Correct took %v", el)
	}
	if len(out.Candidates) != 0 {
		t.Errorf("cancelled Correct produced %d candidates", len(out.Candidates))
	}
	// No goroutine may outlive the call.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines grew from %d to %d", before, n)
	}
}

func TestCorrectContextUncancelledMatchesPlain(t *testing.T) {
	e := engine(t)
	tr := "select salary from employees where gender equals M"
	plain := e.CorrectTopK(tr, 3)
	ctxed := e.CorrectTopKContext(context.Background(), tr, 3)
	if len(plain.Candidates) != len(ctxed.Candidates) {
		t.Fatalf("candidate counts differ: %d vs %d", len(plain.Candidates), len(ctxed.Candidates))
	}
	for i := range plain.Candidates {
		if plain.Candidates[i].SQL != ctxed.Candidates[i].SQL {
			t.Errorf("candidate %d: %q vs %q", i, plain.Candidates[i].SQL, ctxed.Candidates[i].SQL)
		}
	}
}
