package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"speakql"
	"speakql/internal/literal"
)

// testCorpus is shared by the tests: training the ACS profile is the slow
// part of generation.
var testCorpus = newCorpus(speakql.TestGrammar())

func gen(t *testing.T, name string, seed int64) *workload {
	t.Helper()
	w, err := generate(testCorpus, name, seed, 2)
	if err != nil {
		t.Fatalf("generate %s: %v", name, err)
	}
	return w
}

func TestChecksumFollowsSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := gen(t, name, 1), gen(t, name, 1), gen(t, name, 2)
		if a.checksum() != b.checksum() {
			t.Errorf("%s: same seed, checksums %s and %s", name, a.checksum(), b.checksum())
		}
		if a.checksum() == c.checksum() {
			t.Errorf("%s: seeds 1 and 2 share checksum %s", name, a.checksum())
		}
	}
}

func TestFreshNeverRepeatsATranscript(t *testing.T) {
	w := gen(t, "fresh", 3)
	seen := map[string]bool{}
	for _, o := range append(append([]op{}, w.warm...), w.ops...) {
		if seen[o.transcript] {
			t.Fatalf("transcript repeats: %q", o.transcript)
		}
		seen[o.transcript] = true
	}
}

func TestPopularMasksAreWarm(t *testing.T) {
	w := gen(t, "popular", 4)
	warm := map[string]bool{}
	for _, m := range w.warmMasks {
		warm[m] = true
	}
	var reads, repeats, patches int
	for i, o := range append(append([]op{}, w.warm...), w.ops...) {
		if o.kind == kindPatch {
			patches++
			continue
		}
		reads++
		if o.repeat {
			repeats++
		}
		if !warm[maskOf(o.transcript)] {
			t.Fatalf("op %d: mask %q is not in the warm set", i, maskOf(o.transcript))
		}
	}
	if share := float64(repeats) / float64(reads); share < 0.15 || share > 0.3 {
		t.Errorf("repeat share %.2f, want about a quarter", share)
	}
	if patches == 0 {
		t.Error("no PATCH ops")
	}
}

func TestPopularAddedValuesAreReadAfterTheirPatch(t *testing.T) {
	w := gen(t, "popular", 5)
	for i, o := range w.ops {
		if o.kind != kindPatch {
			continue
		}
		j := i + 1
		if j >= len(w.ops) {
			continue
		}
		probe := w.ops[j]
		if probe.added != o.added || len(probe.deps) != 1 || probe.deps[0] != i {
			t.Fatalf("op %d adds %q but op %d dictates %q after %v", i, o.added, j, probe.added, probe.deps)
		}
	}
}

func TestSplitClauses(t *testing.T) {
	got := splitClauses("select a from b where c equals d group by e order by f")
	want := []string{"select a", "from b", "where c equals d", "group by e", "order by f"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestStreamDictationsAllFinalize(t *testing.T) {
	w := gen(t, "stream", 6)
	var clauses int
	for _, o := range w.ops {
		if o.kind != kindDictation || len(o.clauses) == 0 || strings.Join(o.clauses, " ") != o.transcript {
			t.Fatalf("bad dictation %+v", o)
		}
		clauses += len(o.clauses)
	}
	if per := float64(clauses) / float64(len(w.ops)); per < 2 || per > 5 {
		t.Errorf("%.2f clauses per dictation", per)
	}
	ctx := context.Background()
	cl := newClient(2)
	defer cl.close()
	sv, _, err := startServer(ctx, cl, speakql.TestGrammar(), nil, w)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.shutdown()
	r := newRunner(cl, sv.base, w)
	if err := r.openSessions(ctx); err != nil {
		t.Fatal(err)
	}
	before, err := r.stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ph := r.paced(ctx, 2)
	after, err := r.stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d := after["stream.finalized"] - before["stream.finalized"]; d != int64(ph.attempted) || ph.failed != 0 {
		t.Fatalf("%d dictations, %d failed, %d finalized", ph.attempted, ph.failed, d)
	}
}

// baseline is the goroutine count before a run. It starts os/signal's
// receive loop first: that goroutine lives for the rest of the process
// once any run has asked for signals.
func baseline() int {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	signal.Stop(ch)
	return runtime.NumGoroutine()
}

// settle waits for the goroutine count to fall back to base.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestShutdownReleasesPortAndGoroutines(t *testing.T) {
	base := baseline()
	w := gen(t, "fresh", 7)
	ctx := context.Background()
	cl := newClient(2)
	sv, _, err := startServer(ctx, cl, speakql.TestGrammar(), nil, w)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(cl, sv.base, w)
	r.warmup(ctx)
	r.saturated(ctx, 200*time.Millisecond, newCalibrator())
	addr := sv.ln.Addr().String()
	sv.shutdown()
	cl.close()
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatalf("%s still accepts connections after shutdown", addr)
	}
	settle(t, base)
}

func TestInterruptedRunCleansUp(t *testing.T) {
	base := baseline()
	o, err := parseFlags([]string{"--workload", "popular", "--seconds", "4"})
	if err != nil {
		t.Fatal(err)
	}
	o.gcfg = speakql.TestGrammar()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(3*time.Second, cancel)
	var out bytes.Buffer
	if res, err := execute(ctx, o, &out); err == nil {
		t.Fatalf("interrupted run returned a result: %+v", res)
	}
	settle(t, base)
}

// TestRunsMatchBenchmarkJSON runs every workload briefly, timed and traced,
// and checks that each run is correct and prints exactly the metrics
// BENCHMARK.json names, and that BENCHMARK.json names only known workloads.
func TestRunsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, wl := range bench.Workloads {
		if _, ok := specs[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", wl.Name)
		}
	}
	base := baseline()
	for _, name := range workloadNames {
		for trace, want := range [][]struct{ Name, Unit string }{bench.EndToEnd, bench.PerLayer} {
			args := []string{"--workload", name, "--seconds", "2", "--trace", []string{"0", "1"}[trace]}
			if trace == 1 {
				args = append(args, "--spans", filepath.Join(t.TempDir(), "spans.jsonl"))
			}
			o, err := parseFlags(args)
			if err != nil {
				t.Fatal(err)
			}
			o.gcfg = speakql.TestGrammar()
			var out, log bytes.Buffer
			o.log = &log
			if code := run(o, &out); code != 0 {
				t.Fatalf("%v: exit %d\n%s%s", args, code, out.String(), log.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, BENCHMARK.json names %d", args, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%v: metric %s: got %+v, want unit %s", args, m.Name, got, m.Unit)
				}
			}
		}
	}
	settle(t, base)
}

// TestOracleCatchesWrongAnswers checks the answers a correct server gives
// to a popular run, then corrupts one answer and replaces another with the
// answer from the catalog before the PATCH that added its value.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	w := gen(t, "popular", 8)
	st, err := newStack(speakql.TestGrammar(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	ix := st.eng.StructureComponent().Index()
	or := newOracle(ix, speakql.TestGrammar(), literal.NewCatalog(w.tables, w.attrs, w.values), w)
	ctx := context.Background()

	// The answers of a serial run, with its catalog versions.
	var answers []answer
	version, probe := 0, -1
	for i := range w.ops {
		o := &w.ops[i]
		if o.kind == kindPatch {
			version++
			answers = append(answers, answer{ok: true})
			continue
		}
		if o.added != "" && probe < 0 {
			probe = i
		}
		answers = append(answers, answer{ok: true, top1: or.top1(ctx, version, o.transcript, o.topk, true), lo: version, hi: version})
	}
	if probe < 0 {
		t.Fatal("no read dictates an added value")
	}
	checked, bad, err := or.checkAll(ctx, w, nil, answers, 2, io.Discard)
	if err != nil || bad != 0 || checked == 0 {
		t.Fatalf("correct answers: checked %d, %d mismatches, err %v", checked, bad, err)
	}

	answers[0].top1 += " LIMIT 1"
	p := &answers[probe]
	p.top1 = or.top1(ctx, p.lo-1, w.ops[probe].transcript, 1, true)
	if _, bad, _ := or.checkAll(ctx, w, nil, answers, 2, io.Discard); bad != 2 {
		t.Fatalf("%d mismatches, want 2 (a corrupted answer and one from the catalog before its PATCH)", bad)
	}
}

// TestCalibratorNormalizes checks that every kernel slice walks the same
// number of nodes, that slices follow the request time, and that request
// time is scaled by the slices' mean against calNominal.
func TestCalibratorNormalizes(t *testing.T) {
	c := newCalibrator()
	sizes := map[int]bool{}
	for _, r := range c.t.roots {
		n := 0
		var count func(ni int32)
		count = func(ni int32) {
			for ci := c.t.first[ni]; ci < c.t.first[ni]+c.t.num[ni]; ci++ {
				n++
				count(ci)
			}
		}
		count(r)
		sizes[n] = true
	}
	if len(sizes) != 1 {
		t.Fatalf("subtree sizes differ: %v", sizes)
	}
	for i := 0; i < 10; i++ {
		c.before()
		c.after(calEvery / 2)
	}
	if len(c.slices) != 5 {
		t.Fatalf("%d slices for 5 × calEvery of request time, want 5", len(c.slices))
	}
	for i := range c.slices {
		c.slices[i] = 2 * calNominal
	}
	want := time.Duration(float64(time.Second) * math.Pow(0.5, calExponent))
	if got := c.normalize(time.Second); got < want-time.Microsecond || got > want+time.Microsecond {
		t.Fatalf("normalize(1s) at half the nominal speed = %v, want %v", got, want)
	}
}
