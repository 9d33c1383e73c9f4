// Command speakql-bench regenerates the paper's evaluation artifacts: every
// table and figure has a driver in internal/experiments, and this harness
// runs one or all of them and prints rows matching what the paper reports
// (EXPERIMENTS.md records the side-by-side comparison).
//
// Usage:
//
//	speakql-bench [-scale test|default|paper] [-run id[,id…]]
//	              [-cachesize n] [-json FILE]
//	              [-faults SPEC] [-list]
//
// -cachesize n memoizes structure searches in an LRU keyed by the masked
// transcript (0 disables). -json FILE additionally runs a micro-benchmark
// suite over the built index and writes
// machine-readable results — ns/op, B/op, allocs/op per benchmark,
// per-artifact wall-clock, and the cache hit rate — for the perf trajectory
// (CI uploads it as an artifact). The suite includes vote_indexed_yelp,
// literal determination over a Yelp-scale catalog; myers_vs_banded /
// banded_reference, the bounded character edit-distance kernels
// (bit-parallel Myers vs the frozen banded-DP reference) over a fixed
// operand corpus; stream_fragment, one full clause-streaming dictation
// (fragment session + three clauses + finalize) with no search cache; the
// tenant registry triple tenant_warm_hit /
// tenant_cold_load / tenant_evict_reload, the resident-lookup, persist-file
// reload, and full put+evict+reload cycle costs of the multi-tenant
// catalog registry through a capacity-1 LRU; and validate_bind_topk, a
// top-5 correction through the bind-mode validation stage (DESIGN.md §15;
// the off-mode baseline is correct_allocs_per_req). -faults SPEC (or the SPEAKQL_FAULTS environment variable)
// arms the deterministic fault injectors of internal/faultinject, for
// rehearsing degraded runs reproducibly — off by default at zero cost.
// Artifact ids: table2, figure6, figure7 (incl. figure12),
// figure8, figure11, table4 (incl. figure13), figure14, figure15, figure16,
// figure17, figure18, table5, ablation-columns, validation (the
// validation A/B).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/experiments"
	"speakql/internal/faultinject"
	"speakql/internal/httpapi"
	"speakql/internal/literal"
	"speakql/internal/metrics"
	"speakql/internal/registry"
	"speakql/internal/structure"
	"speakql/internal/trieindex"
)

// faultSpec resolves the effective fault-injection spec: the -faults flag
// wins, then the SPEAKQL_FAULTS environment variable, then off.
func faultSpec(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	return os.Getenv("SPEAKQL_FAULTS")
}

// benchJSON is the -json payload.
type benchJSON struct {
	Scale     string           `json:"scale"`
	CacheSize int              `json:"cachesize"`
	EnvSecs   float64          `json:"env_build_seconds"`
	Micro     []microResult    `json:"micro"`
	Artifacts []artifactTiming `json:"artifacts"`
	Cache     *cacheJSON       `json:"cache,omitempty"`
}

type microResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	N           int     `json:"iterations"`
}

type artifactTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

type cacheJSON struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

func main() {
	scale := flag.String("scale", "default", "corpus scale: test, default, or paper")
	run := flag.String("run", "all", "comma-separated artifact ids, or 'all'")
	cacheSize := flag.Int("cachesize", 0,
		"LRU memo cache entries for structure searches, keyed by masked transcript (0 disables)")
	jsonOut := flag.String("json", "", "write machine-readable benchmark results to this file")
	list := flag.Bool("list", false, "list artifact ids and exit")
	faults := flag.String("faults", "",
		"deterministic fault-injection spec, e.g. 'seed=7;structure:latency=5ms@0.1,error@0.05' (empty disables; see internal/faultinject)")
	flag.Parse()

	if spec := faultSpec(*faults); spec != "" {
		inj, err := faultinject.Parse(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -faults spec: %v\n", err)
			os.Exit(2)
		}
		faultinject.Set(inj)
		fmt.Printf("fault injection active: %s\n", inj)
	}

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "test":
		sc = experiments.ScaleTest
	case "default":
		sc = experiments.ScaleDefault
	case "paper":
		sc = experiments.ScalePaper
	default:
		fmt.Fprintf(os.Stderr, "unknown -scale %q\n", *scale)
		os.Exit(2)
	}

	fmt.Printf("SpeakQL experiment harness — scale=%s cachesize=%d\n", sc, *cacheSize)
	t0 := time.Now()
	env, err := experiments.NewEnvWithOptions(sc, experiments.EnvOptions{CacheSize: *cacheSize})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	envSecs := time.Since(t0).Seconds()
	mem := env.Structure.Index().Memory()
	fmt.Printf("environment ready in %.1fs (grammar: ≤%d tokens, %d structures in %d trie nodes; Employees train/test %d/%d, Yelp %d)\n\n",
		envSecs, env.GrammarCfg.MaxTokens,
		mem.Structures, mem.Nodes,
		len(env.Corpus.EmployeesTrain), len(env.Corpus.EmployeesTest), len(env.Corpus.YelpTest))

	report := benchJSON{Scale: string(sc), CacheSize: *cacheSize, EnvSecs: envSecs}

	ids := experiments.IDs()
	if *run != "all" {
		ids = strings.Split(*run, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		t1 := time.Now()
		res, ok := experiments.ByID(env, id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown artifact id %q (use -list)\n", id)
			os.Exit(2)
		}
		fmt.Println(strings.Repeat("=", 78))
		fmt.Println(res.Render())
		secs := time.Since(t1).Seconds()
		fmt.Printf("[%s completed in %.1fs]\n\n", id, secs)
		report.Artifacts = append(report.Artifacts, artifactTiming{ID: id, Seconds: secs})
	}

	if env.Cache != nil {
		cs := env.Cache.Stats()
		report.Cache = &cacheJSON{Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions, HitRate: cs.HitRate()}
		fmt.Printf("search cache: %d hits / %d misses (%.1f%% hit rate), %d evictions\n",
			cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Evictions)
	}

	if *jsonOut != "" {
		report.Micro = microBench(env)
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal bench json: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote benchmark json to %s\n", *jsonOut)
	}
}

// microBench runs the steady-state search micro-benchmarks against the
// environment's built index via testing.Benchmark, so the -json artifact
// carries the same ns/op, B/op, allocs/op triple `go test -bench` reports.
// The search keys cover two regimes: a short near-exact query, top-1 and
// (search_top5) top-5, the width-5 warm-start beam a top-5 request runs;
// and (search_far*) a long literal-heavy garble whose k-th best distance is
// large, the shape of the costliest real searches, where the per-node
// length bound does most of its pruning.
func microBench(env *experiments.Env) []microResult {
	ix := env.Structure.Index()
	near := strings.Fields("SELECT x FROM x x x = x AND x = x")
	far := strings.Fields("SELECT * FROM x WHERE x x IN ( x x x , x x x , x x x , x x x x , x x x x )")
	type searchCase struct {
		name string
		q    []string
		k    int
		opts trieindex.Options
	}
	var out []microResult
	for _, c := range []searchCase{
		{"search_serial", near, 1, trieindex.Options{}},
		{"search_top5", near, 5, trieindex.Options{}},
		{"search_no_bdb", near, 1, trieindex.Options{DisableBDB: true}},
		{"search_far", far, 1, trieindex.Options{}},
		{"search_far_no_bdb", far, 1, trieindex.Options{DisableBDB: true}},
	} {
		q, k, opts := c.q, c.k, c.opts
		out = append(out, runMicro(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.SearchTopK(q, k, opts)
			}
		}))
	}
	out = append(out, streamMicroBench(env))
	out = append(out, voteMicroBench()...)
	out = append(out, myersMicroBench()...)
	out = append(out, tenantMicroBench(env)...)
	out = append(out, correctAllocsMicroBench(env))
	out = append(out, validateMicroBench(env))
	return out
}

// validateMicroBench times the validation stage (DESIGN.md §15) end to
// end: validate_bind_topk corrects a top-5 request through a bind-mode
// engine (parse + schema-bind each candidate). It carries the stage's
// per-request overhead in the perf-trajectory artifact; the off-mode
// baseline is correct_allocs_per_req.
func validateMicroBench(env *experiments.Env) microResult {
	const transcript = "select salary from employees where gender equals M"
	eng := core.NewEngineWithComponent(env.Structure, env.Engine.Catalog(), 5)
	eng.SetValidation(core.ValidationConfig{Mode: core.ValidationBind}, env.EmpDB)
	return runMicro("validate_bind_topk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if res := eng.CorrectTopK(transcript, 5); res.Validation != string(core.ValidationBind) {
				b.Fatalf("validate_bind_topk: validation = %q", res.Validation)
			}
		}
	})
}

// correctAllocsMicroBench drives the full /api/correct serving path —
// routing, admission-free decode, correction, pooled encode, response write
// — in-process through the HTTP handler, so the correct_allocs_per_req key
// tracks the hot path's steady-state allocation budget release over release
// (the pooled encoder holds the response side near zero).
func correctAllocsMicroBench(env *experiments.Env) microResult {
	api := httpapi.New(env.Engine, env.EmpDB)
	defer api.Close()
	h := api.Handler()
	body := `{"transcript":"select salary from employees where gender equals M","topk":3}`
	return runMicro("correct_allocs_per_req", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/api/correct", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatalf("correct_allocs_per_req: status %d: %s", w.Code, w.Body.String())
			}
		}
	})
}

// myersMicroBench times the bounded character edit-distance kernels over a
// fixed corpus of catalog-shaped operand pairs (phonetic codes and literal
// values, all ≤64 bytes) at the bound the vote kernel typically carries:
// myers_vs_banded is the bit-parallel Myers kernel on the hot path,
// banded_reference the frozen banded-DP reference it replaced. Both compute
// identical distances; the pair carries the kernel swap's speedup.
func myersMicroBench() []microResult {
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
	var out []microResult
	out = append(out, runMicro("myers_vs_banded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				metrics.MyersDistanceBounded(p[0], p[1], bound)
			}
		}
	}))
	out = append(out, runMicro("banded_reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				metrics.BandedDistanceBounded(p[0], p[1], bound)
			}
		}
	}))
	return out
}

// tenantMicroBench times the multi-tenant registry's three steady-state
// paths against a capacity-1 LRU with two tenants, so every acquire of the
// non-resident tenant is a disk round trip: tenant_warm_hit (resident
// lookup, the per-request overhead every scoped correction pays),
// tenant_cold_load (persist-file read + catalog index rebuild), and
// tenant_evict_reload (a full churn cycle: write-through put of one tenant,
// LRU eviction of the other, then its cold reload).
func tenantMicroBench(env *experiments.Env) []microResult {
	dir, err := os.MkdirTemp("", "speakql-bench-tenants-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "tenant micro-bench: %v\n", err)
		return nil
	}
	defer os.RemoveAll(dir)
	reg, err := registry.New(registry.Config{
		Shared: registry.Shared{
			Structure:    env.Structure,
			Cache:        env.Cache,
			TopKLiterals: 5,
		},
		MaxLive: 1,
		Dir:     dir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tenant micro-bench: %v\n", err)
		return nil
	}
	dbs := dataset.Schemas(2, 7)
	ids := make([]string, len(dbs))
	cats := make([]*literal.Catalog, len(dbs))
	for i, db := range dbs {
		ids[i] = db.Name
		cats[i] = literal.NewCatalog(db.TableNames(), db.AttributeNames(), db.StringValues(0))
		if _, err := reg.Put(ids[i], cats[i]); err != nil {
			fmt.Fprintf(os.Stderr, "tenant micro-bench: put %s: %v\n", ids[i], err)
			return nil
		}
	}
	acquire := func(id string) bool {
		if _, err := reg.Acquire(id); err != nil {
			fmt.Fprintf(os.Stderr, "tenant micro-bench: acquire %s: %v\n", id, err)
			return false
		}
		return true
	}
	var out []microResult
	// After the puts only ids[1] is resident (capacity 1).
	out = append(out, runMicro("tenant_warm_hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !acquire(ids[1]) {
				b.FailNow()
			}
		}
	}))
	out = append(out, runMicro("tenant_cold_load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Alternating through a capacity-1 LRU makes every acquire a
			// cold load that also evicts the other tenant.
			if !acquire(ids[i%2]) {
				b.FailNow()
			}
		}
	}))
	out = append(out, runMicro("tenant_evict_reload", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := reg.Put(ids[0], cats[0]); err != nil {
				fmt.Fprintf(os.Stderr, "tenant micro-bench: %v\n", err)
				b.FailNow()
			}
			if !acquire(ids[1]) {
				b.FailNow()
			}
		}
	}))
	return out
}

// streamMicroBench times one full clause-streaming dictation — a fresh
// fragment session, three dictated clauses, and a finalize — against the
// Employees catalog. Every iteration repeats the same dictation, so the
// sessions run on a component with no search cache: the stream_fragment
// key keeps measuring the fragment path's search work, not LRU hits.
func streamMicroBench(env *experiments.Env) microResult {
	frags := []string{
		"select first name from employees",
		"where salary greater than 50000",
		"and gender equals M",
	}
	comp := structure.NewFromIndex(env.Structure.Index(), trieindex.Options{}, env.GrammarCfg)
	eng := core.NewEngineWithComponent(comp, env.Engine.Catalog(), 5)
	ctx := context.Background()
	return runMicro("stream_fragment", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fs := eng.NewFragmentSession()
			for _, f := range frags {
				fs.CorrectFragment(ctx, f)
			}
			fs.Finalize(ctx)
		}
	})
}

func runMicro(name string, fn func(b *testing.B)) microResult {
	r := testing.Benchmark(fn)
	fmt.Printf("micro %-18s %12.0f ns/op %8d B/op %6d allocs/op (n=%d)\n",
		name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp(), r.N)
	return microResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		N:           r.N,
	}
}

// voteMicroBench benchmarks literal determination against a Yelp-scale
// catalog (thousands of distinct string values) on the phonetic BK-tree
// index.
func voteMicroBench() []microResult {
	db := dataset.NewYelpDB(dataset.YelpConfig{Businesses: 12000, Users: 400, Reviews: 1500, Seed: 2})
	cat := literal.NewCatalog(db.TableNames(), db.AttributeNames(), db.StringValues(0))
	transcript := strings.Fields("select business name from business where city equals fenix and stars greater than 4")
	structToks := strings.Fields("SELECT x1 FROM x2 WHERE x3 = x4 AND x5 > x6")
	fmt.Printf("vote micro-bench catalog: %d string values\n", len(cat.Values()))
	return []microResult{runMicro("vote_indexed_yelp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			literal.Determine(transcript, structToks, cat, 5)
		}
	})}
}
