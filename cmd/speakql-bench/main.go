// Command speakql-bench regenerates the paper's evaluation artifacts: every
// table and figure has a driver in internal/experiments, and this harness
// runs one or all of them and prints rows matching what the paper reports
// (EXPERIMENTS.md records the side-by-side comparison).
//
// Usage:
//
//	speakql-bench [-scale test|default|paper] [-run id[,id…]]
//	              [-cachesize n] [-list]
//
// -cachesize n memoizes structure searches in an LRU keyed by the masked
// transcript (0 disables) and prints the cache's hit/miss totals at the
// end. Artifact ids: table2, figure6, figure7 (incl. figure12), figure8,
// figure11, table4 (incl. figure13), figure14, figure15, figure16,
// figure17, figure18, table5, ablation-columns, validation (the validation
// A/B). The per-layer micro-benchmarks live in the root package's
// bench_test.go and run under `go test -bench`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"speakql/internal/experiments"
)

func main() {
	scale := flag.String("scale", "default", "corpus scale: test, default, or paper")
	run := flag.String("run", "all", "comma-separated artifact ids, or 'all'")
	cacheSize := flag.Int("cachesize", 0,
		"LRU memo cache entries for structure searches, keyed by masked transcript (0 disables)")
	list := flag.Bool("list", false, "list artifact ids and exit")
	flag.Parse()

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
	mem := env.Structure.Index().Memory()
	fmt.Printf("environment ready in %.1fs (grammar: ≤%d tokens, %d structures in %d trie nodes; Employees train/test %d/%d, Yelp %d)\n\n",
		time.Since(t0).Seconds(), env.GrammarCfg.MaxTokens,
		mem.Structures, mem.Nodes,
		len(env.Corpus.EmployeesTrain), len(env.Corpus.EmployeesTest), len(env.Corpus.YelpTest))

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
		fmt.Printf("[%s completed in %.1fs]\n\n", id, time.Since(t1).Seconds())
	}

	if env.Cache != nil {
		cs := env.Cache.Stats()
		fmt.Printf("search cache: %d hits / %d misses (%.1f%% hit rate), %d evictions\n",
			cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Evictions)
	}
}
