// Benchmarks: one testing.B benchmark per table/figure of the paper (each
// regenerates the artifact through its internal/experiments driver at test
// scale; run cmd/speakql-bench -scale default for the full-size numbers),
// plus micro-benchmarks of the pipeline stages.
package speakql_test

import (
	"sync"
	"testing"

	"speakql"
	"speakql/internal/asr"
	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/experiments"
	"speakql/internal/literal"
	"speakql/internal/metrics"
	"speakql/internal/phonetic"
	"speakql/internal/speech"
	"speakql/internal/structure"
	"speakql/internal/trieindex"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
)

func env(b *testing.B) *experiments.Env {
	benchEnvOnce.Do(func() {
		e, err := experiments.NewEnv(experiments.ScaleTest)
		if err != nil {
			b.Fatalf("build env: %v", err)
		}
		benchEnv = e
	})
	return benchEnv
}

// --- one benchmark per paper artifact ---

func BenchmarkTable2(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		experiments.RunTable2(e)
	}
}

func BenchmarkFigure6(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFigure6(e)
	}
}

func BenchmarkFigure7UserStudy(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFigure7(e)
	}
}

func BenchmarkFigure8ComponentDrillDown(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFigure8(e)
	}
}

func BenchmarkFigure11MetricCDFs(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFigure11(e)
	}
}

func BenchmarkTable4ASREngines(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		experiments.RunTable4(e)
	}
}

func BenchmarkFigure14StructureLatency(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFigure14(e)
	}
}

func BenchmarkFigure15Ablation(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFigure15(e)
	}
}

func BenchmarkFigure16ValueTypes(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFigure16(e)
	}
}

func BenchmarkFigure17PhoneticDistance(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFigure17(e)
	}
}

func BenchmarkFigure18Nested(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		experiments.RunFigure18(e)
	}
}

func BenchmarkTable5NLIComparison(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		experiments.RunTable5(e)
	}
}

// --- pipeline micro-benchmarks ---

func BenchmarkCorrectEndToEnd(b *testing.B) {
	e := env(b)
	transcript := "select sales from employers wear first name equals Jon"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Engine.Correct(transcript)
	}
}

func BenchmarkStructureSearch(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Structure.Determine("select salary from employees where gender equals M and salary greater than 70000")
	}
}

// BenchmarkStructureSearchCached is BenchmarkStructureSearch behind the LRU
// memo cache at 100% hit rate — the steady-state cost of a repeated masked
// shape (a map lookup plus the literal stage's share of Determine).
func BenchmarkStructureSearchCached(b *testing.B) {
	e := env(b)
	cached := structure.NewFromIndex(e.Structure.Index(), trieindex.Options{}, e.GrammarCfg)
	cached.SetSearchCache(core.NewSearchLRU(64))
	const transcript = "select salary from employees where gender equals M and salary greater than 70000"
	cached.Determine(transcript) // fill
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cached.Determine(transcript)
	}
}

var benchAlternatives = []string{
	"select sales from employers wear first name equals Jon",
	"select salary from employees where gender equals M",
	"select first name from employees order by higher date",
	"select count of everything from titles",
	"select last name from employees where salary greater than 70000",
}

// BenchmarkCorrectNBest corrects a 5-alternative ASR n-best list one
// alternative at a time, the way the evaluation scores n-best output.
func BenchmarkCorrectNBest(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range benchAlternatives {
			e.Engine.Correct(tr)
		}
	}
}

func BenchmarkLiteralDetermination(b *testing.B) {
	e := env(b)
	cat := e.Engine.Catalog()
	trans := []string{"SELECT", "first", "name", "FROM", "employers", "WHERE", "salary", ">", "70000"}
	structToks := []string{"SELECT", "x1", "FROM", "x2", "WHERE", "x3", ">", "x4"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		literal.Determine(trans, structToks, cat, 5)
	}
}

// yelpScaleCatalog builds a catalog with thousands of distinct string
// values — the scale where the phonetic BK-tree index pays off.
var (
	yelpScaleOnce sync.Once
	yelpScaleCat  *literal.Catalog
)

func yelpScaleCatalog(b *testing.B) *literal.Catalog {
	b.Helper()
	yelpScaleOnce.Do(func() {
		db := dataset.NewYelpDB(dataset.YelpConfig{Businesses: 12000, Users: 400, Reviews: 1500, Seed: 2})
		yelpScaleCat = literal.NewCatalog(db.TableNames(), db.AttributeNames(), db.StringValues(0))
	})
	return yelpScaleCat
}

var (
	yelpScaleTranscript = []string{"select", "business", "name", "from", "business", "where",
		"city", "equals", "fenix", "and", "stars", ">", "4"}
	yelpScaleStruct = []string{"SELECT", "x1", "FROM", "x2", "WHERE", "x3", "=", "x4", "AND", "x5", ">", "x6"}
)

// BenchmarkLiteralDeterminationYelpScale measures literal determination
// against the multi-thousand-value catalog on the BK-indexed path.
func BenchmarkLiteralDeterminationYelpScale(b *testing.B) {
	cat := yelpScaleCatalog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		literal.Determine(yelpScaleTranscript, yelpScaleStruct, cat, 5)
	}
}

func BenchmarkASRTranscription(b *testing.B) {
	eng := asr.NewEngine(asr.ACSProfile(), 1)
	spoken := speech.VerbalizeQuery(
		"SELECT FromDate , Salary FROM Employees NATURAL JOIN Salaries WHERE FirstName = 'Tomokazu'")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Transcribe(spoken)
	}
}

func BenchmarkVerbalizeQuery(b *testing.B) {
	const q = "SELECT SUM ( salary ) FROM Salaries WHERE FromDate = '1993-01-20' LIMIT 45310"
	for i := 0; i < b.N; i++ {
		speech.VerbalizeQuery(q)
	}
}

func BenchmarkMetaphone(b *testing.B) {
	for i := 0; i < b.N; i++ {
		phonetic.Encode("DepartmentEmployee")
	}
}

func BenchmarkWeightedEditDistance(b *testing.B) {
	a := speakql.Tokenize("SELECT x FROM x WHERE x = x AND x < x ORDER BY x")
	c := speakql.Tokenize("SELECT x , x FROM x NATURAL JOIN x WHERE x = x LIMIT x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.WeightedTokenEditDistance(a, c)
	}
}

func BenchmarkEngineConstructionTestScale(b *testing.B) {
	db := dataset.NewEmployeesDB(dataset.EmployeesConfig{Employees: 50, Departments: 4, Seed: 1})
	cat := speakql.CatalogOf(db)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := speakql.NewEngine(speakql.Config{
			Grammar: speakql.TestGrammar(),
			Catalog: cat,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
