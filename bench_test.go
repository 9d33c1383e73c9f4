// Benchmarks: one testing.B benchmark per table/figure of the paper (each
// regenerates the artifact through its internal/experiments driver at test
// scale; run cmd/speakql-bench -scale default for the full-size numbers),
// plus the micro-benchmarks of every layer — kernel, stage, engine, HTTP
// handler — on the same test-scale environment. `go test -bench` is the
// repo's only micro-benchmark harness:
//
//	go test -run '^$' -bench 'BenchmarkSearch|BenchmarkStreamFragment' -count 5 .
package speakql_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"speakql"
	"speakql/internal/asr"
	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/experiments"
	"speakql/internal/httpapi"
	"speakql/internal/literal"
	"speakql/internal/metrics"
	"speakql/internal/phonetic"
	"speakql/internal/registry"
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

// determined runs one real structure determination of a spoken query on
// the test-scale index and returns what the pipeline hands the literal
// stage: the processed transcript (spoken forms already substituted, e.g.
// "greater than" → ">") and the winning structure.
func determined(b *testing.B, spoken string) (transcript, structToks []string) {
	b.Helper()
	r := env(b).Structure.Determine(spoken)
	if len(r.Structure) == 0 {
		b.Fatalf("no structure determined for %q", spoken)
	}
	return r.Transcript, r.Structure
}

func BenchmarkLiteralDetermination(b *testing.B) {
	cat := env(b).Engine.Catalog()
	trans, structToks := determined(b, "select first name from employers where salary greater than 70000")
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

// BenchmarkLiteralDeterminationYelpScale measures literal determination
// against the multi-thousand-value catalog on the BK-indexed path, fed the
// transcript and structure a test-scale determination of the spoken query
// produces: SELECT x1 FROM x2 WHERE x3 = x4, so x4's value window is
// "fenix AND stars > 4", and one determination visits 7,700 BK nodes
// (literal.bk_nodes).
func BenchmarkLiteralDeterminationYelpScale(b *testing.B) {
	cat := yelpScaleCatalog(b)
	trans, structToks := determined(b, "select business name from business where city equals fenix and stars greater than 4")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		literal.Determine(trans, structToks, cat, 5)
	}
}

// BenchmarkSearch times the steady-state trie search kernel on the
// test-scale index in two regimes: a short near-exact query, top-1 and
// (near_top5) top-5, the width-5 warm-start beam a top-5 request runs;
// and (far) a long literal-heavy garble whose k-th best distance is large,
// the shape of the costliest real searches, where the per-node length
// bound does most of its pruning. The no_bdb cases switch off the
// bidirectional bounds.
func BenchmarkSearch(b *testing.B) {
	ix := env(b).Structure.Index()
	near := strings.Fields("SELECT x FROM x x x = x AND x = x")
	far := strings.Fields("SELECT * FROM x WHERE x x IN ( x x x , x x x , x x x , x x x x , x x x x )")
	for _, c := range []struct {
		name string
		q    []string
		k    int
		opts trieindex.Options
	}{
		{"near", near, 1, trieindex.Options{}},
		{"near_top5", near, 5, trieindex.Options{}},
		{"near_no_bdb", near, 1, trieindex.Options{DisableBDB: true}},
		{"far", far, 1, trieindex.Options{}},
		{"far_no_bdb", far, 1, trieindex.Options{DisableBDB: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.SearchTopK(c.q, c.k, c.opts)
			}
		})
	}
}

// BenchmarkStreamFragment times one full clause-streaming dictation — a
// fresh fragment session, three dictated clauses, and a finalize — against
// the Employees catalog. Every iteration repeats the same dictation, so the
// sessions run on a component with no search cache: the benchmark keeps
// measuring the fragment path's search work, not LRU hits.
func BenchmarkStreamFragment(b *testing.B) {
	e := env(b)
	frags := []string{
		"select first name from employees",
		"where salary greater than 50000",
		"and gender equals M",
	}
	comp := structure.NewFromIndex(e.Structure.Index(), trieindex.Options{}, e.GrammarCfg)
	eng := core.NewEngineWithComponent(comp, e.Engine.Catalog(), 5)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := eng.NewFragmentSession()
		for _, f := range frags {
			fs.CorrectFragment(ctx, f)
		}
		fs.Finalize(ctx)
	}
}

// BenchmarkCharEditDistance times the bounded character edit-distance
// kernels over a fixed corpus of catalog-shaped operand pairs (phonetic
// codes and literal values, all ≤64 bytes) at the bound the vote kernel
// typically carries: myers is the bit-parallel kernel on the hot path,
// banded the banded-DP form it falls back to beyond 64 bytes. Both compute
// identical distances (TestMyersMatchesBanded).
func BenchmarkCharEditDistance(b *testing.B) {
	pairs := [][2]string{
		{"BSNS", "BSNSS"},
		{"KTRN", "K0RN"},
		{"EMPLYS", "EMPLY"},
		{"FRST NM", "FRSTNM"},
		{"fenix", "phoenix"},
		{"celery", "salary"},
		{"pizza hut", "pisa hut"},
		{"department number", "departmint numbre"},
		{"greater than or equal", "grater then or eekwal"},
		{"abcdefghijklmnopqrstuvwxyz0123456789", "abcdefghijklmnopqrstuvwxyz_0123456789"},
	}
	const bound = 4
	for _, c := range []struct {
		name string
		dist func(a, b string, bound int) int
	}{
		{"myers", metrics.MyersDistanceBounded[string, string]},
		{"banded", metrics.BandedDistanceBounded[string, string]},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					c.dist(p[0], p[1], bound)
				}
			}
		})
	}
}

// BenchmarkTenantRegistry times the multi-tenant registry's three
// steady-state paths against a capacity-1 LRU with two tenants, so every
// acquire of the non-resident tenant is a disk round trip: warm_hit
// (resident lookup, the per-request overhead every scoped correction
// pays), cold_load (persist-file read + catalog index rebuild), and
// evict_reload (a full churn cycle: write-through put of one tenant, LRU
// eviction of the other, then its cold reload).
func BenchmarkTenantRegistry(b *testing.B) {
	e := env(b)
	reg, err := registry.New(registry.Config{
		Shared: registry.Shared{
			Structure:    e.Structure,
			Cache:        e.Cache,
			TopKLiterals: 5,
		},
		MaxLive: 1,
		Dir:     b.TempDir(),
	})
	if err != nil {
		b.Fatal(err)
	}
	dbs := dataset.Schemas(2, 7)
	ids := make([]string, len(dbs))
	cats := make([]*literal.Catalog, len(dbs))
	for i, db := range dbs {
		ids[i] = db.Name
		cats[i] = literal.NewCatalog(db.TableNames(), db.AttributeNames(), db.StringValues(0))
		if _, err := reg.Put(ids[i], cats[i]); err != nil {
			b.Fatal(err)
		}
	}
	acquire := func(b *testing.B, id string) {
		if _, err := reg.Acquire(id); err != nil {
			b.Fatal(err)
		}
	}
	// After the puts only ids[1] is resident (capacity 1).
	b.Run("warm_hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acquire(b, ids[1])
		}
	})
	b.Run("cold_load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Alternating through a capacity-1 LRU makes every acquire a
			// cold load that also evicts the other tenant.
			acquire(b, ids[i%2])
		}
	})
	b.Run("evict_reload", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Put(ids[0], cats[0]); err != nil {
				b.Fatal(err)
			}
			acquire(b, ids[1])
		}
	})
}

// BenchmarkCorrectHandler drives the full /api/correct serving path —
// routing, decode, correction, pooled encode, response write — in-process
// through the HTTP handler, so its allocs/op tracks the hot path's
// steady-state allocation budget (the pooled encoder holds the response
// side near zero).
func BenchmarkCorrectHandler(b *testing.B) {
	e := env(b)
	api := httpapi.New(e.Engine, e.EmpDB)
	b.Cleanup(api.Close)
	h := api.Handler()
	const body = `{"transcript":"select salary from employees where gender equals M","topk":3}`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/api/correct", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkValidateBindTopK times the validation stage (DESIGN.md §15) end
// to end: a top-5 correction through a bind-mode engine, which parses and
// schema-binds each candidate. BenchmarkCorrectHandler is the off-mode
// baseline.
func BenchmarkValidateBindTopK(b *testing.B) {
	e := env(b)
	const transcript = "select salary from employees where gender equals M"
	eng := core.NewEngineWithComponent(e.Structure, e.Engine.Catalog(), 5)
	eng.SetValidation(core.ValidationConfig{Mode: core.ValidationBind}, e.EmpDB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := eng.CorrectTopK(transcript, 5); res.Validation != string(core.ValidationBind) {
			b.Fatalf("validation = %q, want bind", res.Validation)
		}
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
