package httpapi

// chaos_test.go is the fault-injection chaos suite: concurrent mixed
// traffic (corrections, dictations, keyboard edits, stats polls) against a
// server whose pipeline stages are deterministically failing — injected
// latency, errors, and panics on structure determination, errors on literal
// determination, errors on the search cache. The suite asserts the
// service's resilience contract rather than any particular output: every
// response is well-formed JSON with a sane status, no goroutine leaks, the
// sessions stay unwedged, and the recovery counters in /api/stats reconcile
// exactly with what the injector reports having fired.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"speakql/internal/core"
	"speakql/internal/faultinject"
)

// chaosSpec exercises every stage and every fault kind at once. The
// probabilities keep most requests healthy so the suite also proves the
// degraded paths coexist with normal service.
const chaosSpec = "seed=1234;structure:latency=2ms@0.3,error@0.1,panic@0.05;literal:error@0.08;cache:error@0.25"

func TestChaosConcurrentMixedTraffic(t *testing.T) {
	api := newAPIServer(t, 64) // cache on, so the cache hook fires
	api.SetAdmission(4, 32)
	api.SetRequestTimeout(10 * time.Second) // generous: no organic deadline sheds
	api.SetSessionTTL(time.Hour)            // sweeper on, but nothing evictable
	ts := serve(t, api)

	const nSessions = 4
	ids := make([]string, nSessions)
	for i := range ids {
		_, out := post(t, ts.URL+"/api/session", map[string]any{})
		ids[i] = out["id"].(string)
	}

	transcripts := []string{
		"select salary from employees where gender equals M",
		"select first name from employees",
		"select count of everything from titles",
	}

	inj, err := faultinject.Parse(chaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)
	defer faultinject.Set(nil)

	before := statsSnapshot(t, ts.URL)
	baseline := runtime.NumGoroutine()

	const workers = 8
	const reqsPerWorker = 24
	type sample struct {
		status int
		body   map[string]any
		err    error
		kind   string
	}
	results := make(chan sample, workers*reqsPerWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < reqsPerWorker; rep++ {
				tr := transcripts[(w+rep)%len(transcripts)]
				var s sample
				switch rep % 4 {
				case 0:
					s.kind = "correct"
					s.status, s.body, s.err = postNoFail(ts.URL+"/api/correct",
						map[string]any{"transcript": tr, "topk": 2})
				case 1:
					s.kind = "dictate"
					s.status, s.body, s.err = postNoFail(ts.URL+"/api/dictate",
						map[string]any{"id": ids[(w+rep)%nSessions], "transcript": tr})
				case 2:
					s.kind = "edit"
					s.status, s.body, s.err = postNoFail(ts.URL+"/api/edit",
						map[string]any{"id": ids[(w+rep)%nSessions], "op": "insert", "pos": 0, "token": "SELECT"})
				case 3:
					s.kind = "stats"
					s.status, s.body, s.err = getJSON(ts.URL + "/api/stats")
				}
				results <- s
			}
		}(w)
	}
	wg.Wait()
	close(results)

	okStatuses := map[int]bool{
		http.StatusOK:                  true,
		http.StatusBadRequest:          true,
		http.StatusNotFound:            true,
		http.StatusInternalServerError: true,
		http.StatusServiceUnavailable:  true,
	}
	levels := map[string]bool{
		core.DegradationFull:          true,
		core.DegradationStructureOnly: true,
		core.DegradationShed:          true,
	}
	n500 := 0
	for s := range results {
		// Every response — including the failing ones — is decodable JSON.
		if s.err != nil {
			t.Fatalf("%s: transport/decode failure under chaos: %v", s.kind, s.err)
		}
		if !okStatuses[s.status] {
			t.Fatalf("%s: unexpected status %d (%v)", s.kind, s.status, s.body)
		}
		if s.status == http.StatusInternalServerError {
			n500++
		}
		// Correction responses always name their ladder level.
		if (s.kind == "correct" || s.kind == "dictate") &&
			(s.status == http.StatusOK || s.status == http.StatusInternalServerError) {
			if lvl, _ := s.body["degradation"].(string); !levels[lvl] {
				t.Fatalf("%s: degradation = %q, want a ladder level (%v)", s.kind, lvl, s.body)
			}
		}
	}

	faultinject.Set(nil)
	after := statsSnapshot(t, ts.URL)
	counts := inj.Counts()

	// The injector actually exercised every configured fault kind; a silent
	// no-op run would vacuously pass everything above.
	if counts["structure"].Panics == 0 || counts["structure"].Errors == 0 ||
		counts["structure"].Latencies == 0 || counts["literal"].Errors == 0 ||
		counts["cache"].Errors == 0 {
		t.Fatalf("chaos run fired too little: %+v", counts)
	}

	// Reconciliation: the service's recovery counters must match what the
	// injector fired, one to one.
	delta := func(block, key string) float64 {
		get := func(snap map[string]any) float64 {
			b, _ := snap[block].(map[string]any)
			if b == nil {
				return 0
			}
			switch v := b[key].(type) {
			case float64:
				return v
			case map[string]any:
				return 0
			}
			return 0
		}
		return get(after) - get(before)
	}
	degradedDelta := func(level string) float64 {
		get := func(snap map[string]any) float64 {
			res, _ := snap["resilience"].(map[string]any)
			if res == nil {
				return 0
			}
			deg, _ := res["degraded"].(map[string]any)
			if deg == nil {
				return 0
			}
			v, _ := deg["core.degraded."+level].(float64)
			return v
		}
		return get(after) - get(before)
	}

	if got, want := delta("resilience", "panics_recovered"), float64(counts["structure"].Panics); got != want {
		t.Errorf("panic.recovered grew by %v, injector fired %v panics", got, want)
	}
	if got, want := degradedDelta(core.DegradationShed), float64(counts["structure"].Errors); got != want {
		t.Errorf("core.degraded.shed grew by %v, injector fired %v structure errors", got, want)
	}
	if got, want := degradedDelta(core.DegradationStructureOnly), float64(counts["literal"].Errors); got != want {
		t.Errorf("core.degraded.structure_only grew by %v, injector fired %v literal errors", got, want)
	}
	if got, want := countersDelta(before, after, "cache.injected_misses"), float64(counts["cache"].Errors); got != want {
		t.Errorf("cache.injected_misses grew by %v, injector fired %v cache errors", got, want)
	}
	// Every 500 is accounted for: a recovered panic or an injected
	// structure error — nothing failed for an unexplained reason.
	if want := int(counts["structure"].Panics + counts["structure"].Errors); n500 != want {
		t.Errorf("saw %d 500s, expected exactly %d (panics + structure errors)", n500, want)
	}

	// The sessions survived the chaos unwedged: every one still dictates.
	for _, id := range ids {
		code, out, err := postNoFail(ts.URL+"/api/dictate",
			map[string]any{"id": id, "transcript": transcripts[0]})
		if err != nil || code != http.StatusOK {
			t.Errorf("session %s wedged after chaos: %d %v %v", id, code, out, err)
		}
	}

	// No goroutine leaks: once idle connections close, the count returns to
	// the pre-traffic baseline (small slack for runtime helpers).
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked under chaos: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// Determinism: the same spec over the same request sequence fires the same
// faults. Run serially (one stream of identical requests) twice and compare
// the injector tallies.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() map[string]faultinject.Counts {
		api := newAPIServer(t, 16)
		ts := serve(t, api)
		inj, err := faultinject.Parse("seed=77;structure:error@0.2;literal:error@0.2;cache:error@0.2")
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Set(inj)
		defer faultinject.Set(nil)
		for i := 0; i < 40; i++ {
			code, body, err := postNoFail(ts.URL+"/api/correct",
				map[string]any{"transcript": "select salary from employees"})
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if code != http.StatusOK && code != http.StatusInternalServerError {
				t.Fatalf("request %d: status %d (%v)", i, code, body)
			}
		}
		return inj.Counts()
	}
	a := run()
	b := run()
	for _, stage := range []string{"structure", "literal", "cache"} {
		if a[stage] != b[stage] {
			t.Errorf("stage %s not deterministic: %+v vs %+v", stage, a[stage], b[stage])
		}
	}
}

// getJSON fetches a GET endpoint, decoding the body (goroutine-safe).
func getJSON(url string) (int, map[string]any, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decode: %w", err)
	}
	return resp.StatusCode, out, nil
}

// countersDelta reads a top-level counter's growth between two stats
// snapshots.
func countersDelta(before, after map[string]any, name string) float64 {
	get := func(snap map[string]any) float64 {
		c, _ := snap["counters"].(map[string]any)
		if c == nil {
			return 0
		}
		v, _ := c[name].(float64)
		return v
	}
	return get(after) - get(before)
}
