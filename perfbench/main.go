// Command perfbench is SpeakQL-Go's serving benchmark. It builds the
// server in this process (speakql-server's defaults, default grammar
// scale), serves it on a loopback port, drives one named workload generated
// from a seed, checks every answer against ground truth, and prints the
// end-to-end metrics; with --trace 1 it then checks every answer against a
// cache-free oracle, replays the ops serially through each layer and
// prints the per-layer metrics instead. The last line of standard output
// is one JSON object. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fresh --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"speakql"
	"speakql/internal/grammar"
)

// runDeadline bounds a whole run; runs that reach it shut down and fail.
const runDeadline = 170 * time.Second

// setups is how many times a timed run sets the server up; setup_s is
// their median.
const setups = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // where the traced run writes its spans
	gcfg     grammar.GenConfig
	conns    int
	log      io.Writer // diagnostics
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// A last resort: whatever blocks, the process ends (taking its
	// listeners with it) shortly after the run deadline.
	watchdog := time.AfterFunc(runDeadline+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run deadline exceeded; exiting")
		os.Exit(3)
	})
	code := run(o, os.Stdout)
	watchdog.Stop()
	os.Exit(code)
}

// run executes one run until it completes, fails, is interrupted (SIGINT,
// SIGTERM) or reaches the run deadline, prints the result line on success,
// and returns the exit code.
func run(o options, stdout io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	res, err := execute(ctx, o, stdout)
	if err != nil {
		fmt.Fprintln(o.log, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(o.log, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := options{gcfg: speakql.DefaultGrammar(), log: os.Stderr}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "measured seconds, split between the paced and the saturated phase")
	traceN := fs.Int("trace", 0, "1 replays the ops serially through each layer and prints the per-layer metrics")
	fs.StringVar(&o.spans, "spans", "", "with --trace 1, write every span to this file as JSON lines (default .bench_build/spans-WORKLOAD-SEED.jsonl)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := specs[o.workload]; !ok {
		return o, fmt.Errorf("--workload must be one of %s", strings.Join(workloadNames, ", "))
	}
	if o.seconds <= 0 || *traceN < 0 || *traceN > 1 {
		return o, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o.trace = *traceN == 1
	if o.spans == "" {
		o.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	}
	// One load-generating process with at most nproc connections and
	// GOMAXPROCS at most nproc.
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	o.conns = nproc
	return o, nil
}

// liveHeapMB is the live heap after a forced collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	return runtimeSample("/gc/heap/live:bytes")[0] / 1e6
}

// execute runs one workload end to end and returns the result line.
func execute(ctx context.Context, o options, out io.Writer) (*result, error) {
	c := newCorpus(o.gcfg)
	t0 := time.Now()
	w, err := generate(c, o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "workload %s seed %d checksum %s ops warm=%d paced=%d saturated_pool=%d rate=%.0f/s conns=%d gomaxprocs=%d generated_in=%.1fs\n",
		w.name, o.seed, w.checksum(), len(w.warm), w.paced, len(w.ops)-w.paced, w.rate, o.conns, runtime.GOMAXPROCS(0), time.Since(t0).Seconds())
	cl := newClient(o.conns)
	defer cl.close()

	n := setups
	if o.trace {
		n = 1
	}
	var (
		sv     *served
		setupS []float64
		heapMB float64
	)
	defer func() {
		if sv != nil {
			sv.shutdown()
		}
	}()
	for i := 0; i < n; i++ {
		if sv != nil {
			sv.shutdown()
			sv = nil
		}
		var base float64
		if i == 0 {
			base = liveHeapMB()
		}
		s, d, err := startServer(ctx, cl, o.gcfg, nil, w)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		sv = s
		setupS = append(setupS, d.Seconds())
		if i == 0 {
			// Measured around the first set-up only: a torn-down server's
			// goroutines may still be exiting when the next one starts.
			heapMB = liveHeapMB() - base
		}
	}
	debug.FreeOSMemory()

	r := newRunner(cl, sv.base, w)
	if w.sessions > 0 {
		if err := r.openSessions(ctx); err != nil {
			return nil, err
		}
	}
	warm := r.warmup(ctx)
	before, err := r.stats(ctx)
	if err != nil {
		return nil, err
	}
	cpu0 := runtimeSample("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds")
	cal := newCalibrator()
	paced := r.paced(ctx, o.conns)
	sat := r.saturated(ctx, w.satDur, cal)
	cpu1 := runtimeSample("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds")
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run interrupted: %w", err)
	}
	after, err := r.stats(ctx)
	if err != nil {
		return nil, err
	}
	counters := delta(before, after)
	ix := sv.eng.StructureComponent().Index()
	sv.shutdown()
	sv = nil

	rep := &report{out: out, w: w, cal: cal, warm: warm, paced: paced, sat: sat, r: r, counters: counters,
		setupS: setupS, heapMB: heapMB, gcCPU: ratio(cpu1[0]-cpu0[0], cpu1[1]-cpu0[1])}
	res := rep.endToEnd()
	if o.trace {
		tr, err := traceRun(ctx, o, w, ix, cl, r)
		if err != nil {
			return nil, err
		}
		res = rep.perLayer(tr)
		if err := tr.writeSpans(o.spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// report turns phase results into printed lines and the result object.
type report struct {
	out      io.Writer
	w        *workload
	cal      *calibrator // the saturated phase's kernel slices
	warm     *phase
	paced    *phase
	sat      *phase
	r        *runner
	counters map[string]int64
	setupS   []float64
	heapMB   float64
	gcCPU    float64
}

func (rp *report) line(name string, v float64, unit string, extra string) {
	fmt.Fprintf(rp.out, "metric %-40s %14.6g %-6s %s\n", name, v, unit, extra)
}

// endToEnd prints every end-to-end metric and returns the timed run's
// result.
func (rp *report) endToEnd() *result {
	w, p, s := rp.w, rp.paced, rp.sat
	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	setup := median(rp.setupS)
	rp.line("setup_s", setup, "s", fmt.Sprintf("n=%d runs=%v", len(rp.setupS), fmtList(rp.setupS)))
	put("setup_s", setup, "s")
	rp.line("heap_mb", rp.heapMB, "MB", "n=1")
	put("heap_mb", rp.heapMB, "MB")

	// Latency is printed, not in BENCHMARK.json: on the reference machine
	// its run-to-run spread is wider than any bound a metric may have
	// (README.md).
	lat := msOf(p.lat)
	rp.line("latency_p50_ms", quantile(lat, 0.5), "ms", fmt.Sprintf("n=%d", len(lat)))
	rp.line("latency_p99_ms", quantile(lat, 0.99), "ms", fmt.Sprintf("n=%d beyond=%d", len(lat), beyond(len(lat), 0.99)))

	// Raw throughput is printed, not in BENCHMARK.json: it moves with the
	// machine's speed (README.md).
	tput, norm, nResp, busy := s.throughput(rp.cal)
	rp.line("throughput_rps", tput, "req/s", fmt.Sprintf("n=%d ok responses in %.2fs of request time on 1 connection", nResp, busy.Seconds()))
	rp.line("throughput_norm_rps", norm, "req/s", fmt.Sprintf("n=%d; n=%d kernel slices, mean %.0fus (nominal %.0fus)",
		nResp, len(rp.cal.slices), float64(rp.cal.mean())/1e3, float64(calNominal)/1e3))
	put("throughput_norm_rps", norm, "req/s")

	attempted := p.attempted + s.attempted
	failed := p.failed + s.failed
	rp.line("failed_ratio", ratio(float64(failed), float64(attempted)), "ratio",
		fmt.Sprintf("n=%d failed=%d reasons=%v", attempted, failed, mergeReasons(p, s)))

	var exact, scored int
	var wrr float64
	for i := range w.ops {
		o, a := &w.ops[i], rp.r.answers[i]
		if !a.ok || o.truth == nil {
			continue
		}
		e, wr := score(o.truth, a.top1)
		scored++
		wrr += wr
		if e {
			exact++
		}
	}
	rp.line("top1_exact_ratio", ratio(float64(exact), float64(scored)), "ratio", fmt.Sprintf("n=%d exact=%d", scored, exact))
	rp.line("wrr", ratio(wrr, float64(scored)), "ratio", fmt.Sprintf("n=%d", scored))
	put("top1_exact_ratio", ratio(float64(exact), float64(scored)), "ratio")
	put("wrr", ratio(wrr, float64(scored)), "ratio")

	if w.name == "stream" {
		fin := msOf(p.fin)
		rp.line("finalize_p50_ms", quantile(fin, 0.5), "ms", fmt.Sprintf("n=%d", len(fin)))
		rp.line("finalize_p99_ms", quantile(fin, 0.99), "ms", fmt.Sprintf("n=%d beyond=%d", len(fin), beyond(len(fin), 0.99)))
	}

	// Drift: the paced phase's two halves.
	var first, second []float64
	for _, x := range p.lat {
		if x.due < w.pacedDur/2 {
			first = append(first, x.ms)
		} else {
			second = append(second, x.ms)
		}
	}
	fmt.Fprintf(rp.out, "drift paced latency first half p50=%.3fms p99=%.3fms n=%d | second half p50=%.3fms p99=%.3fms n=%d\n",
		quantile(first, 0.5), quantile(first, 0.99), len(first), quantile(second, 0.5), quantile(second, 0.99), len(second))
	fmt.Fprintf(rp.out, "phase paced attempted=%d failed=%d queue_wait_p99=%.0fus late_p99=%.0fus | saturated attempted=%d failed=%d | warm-up attempted=%d failed=%d\n",
		p.attempted, p.failed, quantile(p.queueWait, 0.99), quantile(p.late, 0.99), s.attempted, s.failed, rp.warm.attempted, rp.warm.failed)

	// Cache shares with their bases, from /api/stats counter deltas.
	c := rp.counters
	memoHit, memoMiss := c["server.memo_hit"], c["server.memo_miss"]
	lruHit, lruMiss := c["cache.search_hits"], c["cache.search_misses"]
	fmt.Fprintf(rp.out, "cache memo_hit_share=%.4f (%d of %d lookups) search_lru_hit_share=%.4f (%d of %d lookups)\n",
		ratio(float64(memoHit), float64(memoHit+memoMiss)), memoHit, memoHit+memoMiss,
		ratio(float64(lruHit), float64(lruHit+lruMiss)), lruHit, lruHit+lruMiss)

	res.Attempted = attempted + rp.warm.attempted
	res.Failed = failed + rp.warm.failed
	res.Correct = res.Failed == 0 && scored > 0
	return res
}

func mergeReasons(ps ...*phase) map[string]int {
	m := map[string]int{}
	for _, p := range ps {
		for k, v := range p.reasons {
			m[k] += v
		}
	}
	return m
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
