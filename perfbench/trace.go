package main

// trace.go is the traced run. It replays the workload's ops serially, in
// order, and times each layer's public entry point on an instance of its
// own, so a span covers only the work that layer did for that op:
//
//	wire       client-observed HTTP over loopback (a served stack)
//	httpapi    Handler().ServeHTTP in process (a second stack)
//	registry   Registry.Acquire / Registry.Update
//	session    Session.StreamFragment / Session.FinalizeStream
//	core       Engine.CorrectTopKContext, FragmentSession.CorrectFragment / Finalize
//	structure  Component.DetermineTopKErr
//	trieindex  Index.SearchTopKContext, once per search-LRU miss
//	literal    literal.DetermineErr, once per structure filled
//
// Every instance has the server's cache sizes and sees the same op
// sequence, so its caches hit exactly when the served program's do; the
// served program's counter deltas per op tell which layers ran, and a
// layer below a cache hit records no span. All instances share the one
// frozen structure index. Before the replay, every answer of the timed
// phases is checked against a cache-free engine (oracle.go); the replay's
// own answers are checked the same way.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"speakql"
	"speakql/internal/core"
	"speakql/internal/literal"
	"speakql/internal/obs"
	"speakql/internal/registry"
	"speakql/internal/session"
	"speakql/internal/stream"
	"speakql/internal/structure"
	"speakql/internal/trieindex"
)

// span is one timed call into a layer for one op.
type span struct {
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// traced is the traced run's outcome.
type traced struct {
	t0       time.Time
	spans    []span
	self     map[string][]float64 // self times (µs) by layer
	ops      int                  // timed ops replayed
	timed    int                  // timed ops the timed phases ran
	checked  int                  // answers of the timed phases checked against the oracle
	checkS   float64              // seconds the check took
	failed   int
	reasons  map[string]int
	allocs   float64 // heap objects allocated over all ServeHTTP calls
	requests int     // ServeHTTP calls
	wireUS   float64 // summed wire time of the replayed timed ops
	replayUS float64 // summed time the replay of those ops took
	search   trieindex.Stats
	// warm is the number of warm-up ops at the head of the replay: they
	// bring every instance's caches to the served program's state and
	// record no spans.
	warm int
}

// rec records a span of a timed op and returns its length in µs.
func (t *traced) rec(op int, layer, parent string, start, end time.Time) float64 {
	s := span{Op: op - t.warm, Layer: layer, Parent: parent, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	if op >= t.warm {
		t.spans = append(t.spans, s)
	}
	return s.us()
}

// addSelf records a layer's self time for a timed op.
func (t *traced) addSelf(op int, layer string, us float64) {
	if op >= t.warm {
		t.self[layer] = append(t.self[layer], us)
	}
}

func (t *traced) fail(why string) {
	t.failed++
	t.reasons[why]++
}

func (t *traced) layer(name string) []float64 {
	var us []float64
	for _, s := range t.spans {
		if s.Layer == name {
			us = append(us, s.us())
		}
	}
	return us
}

// writeSpans writes every span as one JSON line.
func (t *traced) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// recordingLRU wraps the structure instance's search LRU and records the
// keys that missed, so the trieindex layer can replay exactly those
// searches.
type recordingLRU struct {
	*core.SearchLRU
	mu     sync.Mutex
	missed []string
}

func (r *recordingLRU) Get(key string) ([]trieindex.Result, trieindex.Stats, bool) {
	rs, st, ok := r.SearchLRU.Get(key)
	if !ok {
		r.mu.Lock()
		r.missed = append(r.missed, key)
		r.mu.Unlock()
	}
	return rs, st, ok
}

func (r *recordingLRU) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.missed
	r.missed = nil
	return m
}

// decodeKey splits a structure search-LRU key (each masked token followed
// by a newline, then k) into the search's inputs.
func decodeKey(key string) ([]string, int, bool) {
	i := strings.LastIndexByte(key, '\n')
	if i < 0 {
		return nil, 0, false
	}
	k, err := strconv.Atoi(key[i+1:])
	if err != nil {
		return nil, 0, false
	}
	return strings.Split(key[:i], "\n"), k, true
}

// layers holds one instance per layer.
type layers struct {
	ix     *trieindex.Index
	wire   *served
	h      *stack // in-process ServeHTTP
	reg    *registry.Registry
	coreC  *structure.Component
	coreL  *core.SearchLRU
	core   *core.Engine
	strC   *structure.Component
	strL   *recordingLRU
	sess   *session.Session
	cat    *literal.Catalog // the workload tenant's current catalog
	base   *literal.Catalog // the workload tenant's catalog before any PATCH
	tenant string           // registry id of the workload's tenant
}

func newLayers(ctx context.Context, o options, w *workload, ix *trieindex.Index, cl *client) (*layers, error) {
	L := &layers{ix: ix, tenant: seedTenant}
	var err error
	if L.wire, _, err = startServer(ctx, cl, o.gcfg, ix, w); err != nil {
		return nil, err
	}
	if L.h, err = newStack(o.gcfg, ix); err != nil {
		L.close()
		return nil, err
	}
	opts := trieindex.Options{}
	newComp := func() (*structure.Component, *core.SearchLRU) {
		c := structure.NewFromIndex(ix, opts, o.gcfg)
		lru := core.NewSearchLRU(serverCacheSize)
		c.SetSearchCache(lru)
		return c, lru
	}
	L.coreC, L.coreL = newComp()
	L.strC = structure.NewFromIndex(ix, opts, o.gcfg)
	L.strL = &recordingLRU{SearchLRU: core.NewSearchLRU(serverCacheSize)}
	L.strC.SetSearchCache(L.strL)
	L.cat = speakql.CatalogOf(L.h.db)
	regC, regL := newComp()
	regEng := core.NewEngineWithComponent(regC, L.cat, serverTopKLit)
	regEng.AdoptSearchCache(regL)
	if L.reg, err = registry.New(registry.Config{
		Shared:  registry.Shared{Structure: regC, Cache: regL, TopKLiterals: serverTopKLit, Validation: validationOff()},
		MaxLive: serverMaxTenants,
	}); err != nil {
		L.close()
		return nil, err
	}
	L.reg.SetSeed(seedTenant, regEng, L.cat)
	if w.tenant != "" {
		L.tenant = w.tenant
		L.cat = literal.NewCatalog(w.tables, w.attrs, w.values)
		if _, err := L.reg.Put(w.tenant, literal.NewCatalog(w.tables, w.attrs, w.values)); err != nil {
			L.close()
			return nil, err
		}
		rec := httptest.NewRecorder()
		L.h.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/api/tenants/"+w.tenant, bytes.NewReader(w.tenantBody)))
		if rec.Code != http.StatusOK {
			L.close()
			return nil, fmt.Errorf("register tenant in process: status %d", rec.Code)
		}
	}
	L.base = L.cat
	L.setCatalog(L.cat)
	sessC, sessL := newComp()
	sessEng := core.NewEngineWithComponent(sessC, L.cat, serverTopKLit)
	sessEng.AdoptSearchCache(sessL)
	L.sess = session.New(sessEng)
	L.sess.SetStreamConfig(stream.Config{})
	return L, nil
}

// setCatalog rebuilds the catalog-bound engines, as the registry does when
// a tenant's catalog changes.
func (L *layers) setCatalog(cat *literal.Catalog) {
	L.cat = cat
	L.core = core.NewEngineWithComponent(L.coreC, cat, serverTopKLit)
	L.core.AdoptSearchCache(L.coreL)
}

func (L *layers) close() {
	if L.wire != nil {
		L.wire.shutdown()
	}
	if L.h != nil {
		L.h.close()
	}
	if L.reg != nil && L.tenant != seedTenant {
		_ = L.reg.Delete(L.tenant) // the only error is an unknown tenant
	}
}

// serveHTTP times one in-process request and counts its allocations.
func (t *traced) serveHTTP(h http.Handler, op int, method, path string, body []byte) (float64, int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	a0 := runtimeSample("/gc/heap/allocs:objects")[0]
	start := time.Now()
	h.ServeHTTP(rec, req)
	end := time.Now()
	if op >= t.warm {
		t.allocs += runtimeSample("/gc/heap/allocs:objects")[0] - a0
		t.requests++
	}
	return t.rec(op, "httpapi", "wire", start, end), rec.Code, rec.Body.Bytes()
}

// traceBudget is how long the traced replay of timed ops runs, as a share
// of --seconds. Every answer of the timed phases is checked against the
// oracle whatever the budget; the budget bounds how many ops the replay
// times.
const traceBudget = 0.3

// traceRun checks the timed run's answers against the oracle, then replays
// the warm-up ops and the timed ops serially, in order, until the budget is
// spent.
func traceRun(ctx context.Context, o options, w *workload, ix *trieindex.Index, cl *client, r *runner) (*traced, error) {
	L, err := newLayers(ctx, o, w, ix, cl)
	if err != nil {
		return nil, fmt.Errorf("traced run set-up: %w", err)
	}
	defer L.close()
	t := &traced{self: map[string][]float64{}, reasons: map[string]int{}, warm: len(w.warm)}
	for _, done := range r.done {
		select {
		case <-done:
			t.timed++
		default: // a pool op the saturated phase did not reach
		}
	}
	or := newOracle(ix, o.gcfg, L.base, w)
	c0 := time.Now()
	checked, bad, err := or.checkAll(ctx, w, r.warm, r.answers, o.conns, o.log)
	if err != nil {
		return nil, err
	}
	t.checked, t.checkS = checked, time.Since(c0).Seconds()
	for k := 0; k < bad; k++ {
		t.fail("oracle_mismatch")
	}

	var wireSess, hSess string
	if w.name == "stream" {
		code, body, err := cl.do(ctx, http.MethodPost, L.wire.base+"/api/session", []byte("{}"))
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("traced run: open session: %v (status %d)", err, code)
		}
		wireSess = sessionID(body)
		rec := httptest.NewRecorder()
		L.h.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/session", strings.NewReader("{}")))
		hSess = sessionID(rec.Body.Bytes())
	}
	t.t0 = time.Now()
	var end time.Time // the budget starts after the warm-up ops
	all := append(append([]op{}, w.warm...), w.ops...)
	version := 0 // PATCHes before op i, in op order
	for i := range all {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("traced run interrupted: %w", ctx.Err())
		}
		if i == len(w.warm) {
			end = time.Now().Add(time.Duration(o.seconds * traceBudget * float64(time.Second)))
		}
		if i >= len(w.warm) && time.Now().After(end) {
			break
		}
		oi := &all[i]
		start := time.Now()
		var a answer
		switch oi.kind {
		case kindCorrect, kindPatch:
			a = t.oneShot(ctx, L, cl, i, oi)
		case kindDictation:
			a = t.dictation(ctx, L, cl, i, oi, wireSess, hSess)
		}
		if i >= t.warm {
			t.ops++
			t.replayUS += float64(time.Since(start)) / 1e3
		}
		if oi.kind == kindPatch {
			version++
			continue
		}
		a.lo, a.hi = version, version
		if a.ok && !or.matches(ctx, oi, a, false) {
			t.fail("oracle_mismatch")
		}
	}
	return t, nil
}

func sessionID(body []byte) string {
	var resp struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal(body, &resp) // an empty id fails the first stream request
	return resp.ID
}

// counters snapshots the process's obs counters.
func counters() map[string]int64 { return obs.Default().Snapshot().Counters }

// wire records a timed op's client-observed time.
func (t *traced) wire(op int, us float64) {
	if op >= t.warm {
		t.wireUS += us
	}
}

// oneShot traces a correction or a catalog PATCH and returns the wire
// instance's checked answer.
func (t *traced) oneShot(ctx context.Context, L *layers, cl *client, i int, o *op) answer {
	method := http.MethodPost
	if o.kind == kindPatch {
		method = http.MethodPatch
	}
	before := counters()
	start := time.Now()
	code, body, err := cl.do(ctx, method, L.wire.base+o.path, o.body)
	wireUS := t.rec(i, "wire", "", start, time.Now())
	d := delta(before, counters())
	t.wire(i, wireUS)
	hUS, _, _ := t.serveHTTP(L.h.h, i, method, o.path, o.body)
	t.addSelf(i, "wire", wireUS-hUS)

	if o.kind == kindPatch {
		s := time.Now()
		_, _, uerr := L.reg.Update(L.tenant, o.delta)
		regUS := t.rec(i, "registry", "httpapi", s, time.Now())
		t.addSelf(i, "httpapi", hUS-regUS)
		cat, _ := L.cat.ApplyDelta(o.delta)
		L.setCatalog(cat)
		why := checkStatus(code, err)
		if why != "" {
			t.fail(why)
		}
		if uerr != nil {
			t.fail("registry_update")
		}
		return answer{ok: why == ""}
	}
	s := time.Now()
	_, aerr := L.reg.Acquire(L.tenant)
	regUS := t.rec(i, "registry", "httpapi", s, time.Now())
	if aerr != nil {
		t.fail("registry_acquire")
	}
	coreUS := 0.0
	if d["server.memo_hit"] == 0 {
		coreUS = t.correct(ctx, L, i, o)
	}
	t.addSelf(i, "httpapi", hUS-regUS-coreUS)

	top1, why := checkCorrect(o, code, body, err)
	if why != "" {
		t.fail(why)
	}
	return answer{ok: why == "", top1: top1}
}

// correct traces the engine layers of a correction the served program's
// memo missed, and returns the core span in µs.
func (t *traced) correct(ctx context.Context, L *layers, i int, o *op) float64 {
	s := time.Now()
	L.core.CorrectTopKContext(ctx, o.transcript, o.topk)
	coreUS := t.rec(i, "core", "httpapi", s, time.Now())

	L.strL.take()
	s = time.Now()
	rs, _ := L.strC.DetermineTopKErr(ctx, o.transcript, o.topk)
	strUS := t.rec(i, "structure", "core", s, time.Now())
	trieUS := 0.0
	for _, key := range L.strL.take() {
		masked, k, ok := decodeKey(key)
		if !ok {
			continue
		}
		s = time.Now()
		_, st := L.ix.SearchTopKContext(ctx, masked, k, trieindex.Options{})
		trieUS += t.rec(i, "trieindex", "structure", s, time.Now())
		if i >= t.warm {
			t.search.NodesVisited += st.NodesVisited
			t.search.TriesSearched += st.TriesSearched
			t.search.TriesSkipped += st.TriesSkipped
		}
	}
	t.addSelf(i, "structure", strUS-trieUS)
	litUS := 0.0
	for _, r := range rs {
		s = time.Now()
		_, _ = literal.DetermineErr(r.Transcript, r.Structure, L.cat, serverTopKLit) // errors come only from fault injection, which is off
		litUS += t.rec(i, "literal", "core", s, time.Now())
	}
	t.addSelf(i, "core", coreUS-strUS-litUS)
	return coreUS
}

// dictation traces one clause-by-clause dictation and its finalize, and
// returns the wire instance's checked answer.
func (t *traced) dictation(ctx context.Context, L *layers, cl *client, i int, o *op, wireSess, hSess string) answer {
	fs := L.core.NewFragmentSession()
	var top1, why string
	for n := 0; n <= len(o.clauses); n++ {
		final := n == len(o.clauses)
		path, frag := "/api/stream/dictate", ""
		if final {
			path = "/api/stream/finalize"
		} else {
			frag = o.clauses[n]
		}
		start := time.Now()
		code, body, err := cl.do(ctx, http.MethodPost, L.wire.base+path, streamBody(wireSess, frag, final))
		wireUS := t.rec(i, "wire", "", start, time.Now())
		t.wire(i, wireUS)
		hUS, _, _ := t.serveHTTP(L.h.h, i, http.MethodPost, path, streamBody(hSess, frag, final))
		t.addSelf(i, "wire", wireUS-hUS)

		s := time.Now()
		if final {
			_, _ = L.sess.FinalizeStream(ctx) // checked on the wire instance
		} else {
			_, _ = L.sess.StreamFragment(ctx, frag) // checked on the wire instance
		}
		sessUS := t.rec(i, "session", "httpapi", s, time.Now())
		t.addSelf(i, "httpapi", hUS-sessUS)

		s = time.Now()
		layer := "core.fragment"
		if final {
			fs.Finalize(ctx)
			layer = "core.finalize"
		} else {
			fs.CorrectFragment(ctx, frag)
		}
		coreUS := t.rec(i, layer, "session", s, time.Now())
		t.addSelf(i, "session", sessUS-coreUS)

		sql, w := checkStream(code, body, err)
		if w != "" && why == "" {
			why = w
		}
		top1 = sql
	}
	if why != "" {
		t.fail(why)
	}
	return answer{ok: why == "", top1: top1}
}

// perLayer prints every per-layer metric and returns the traced run's
// result.
func (rp *report) perLayer(t *traced) *result {
	res := &result{Metrics: map[string]metric{}}
	c := rp.counters
	put := func(name string, v float64, unit, base string) {
		res.Metrics[name] = metric{v, unit}
		rp.line(name, v, unit, base)
	}
	pct := func(name string, xs []float64, q float64) {
		put(name, quantile(xs, q), "us", fmt.Sprintf("n=%d", len(xs)))
	}
	f := func(k string) float64 { return float64(c[k]) }

	trie := t.layer("trieindex")
	pct("trieindex.search_us_p50", trie, 0.5)
	pct("trieindex.search_us_p99", trie, 0.99)
	st := t.search
	put("trieindex.nodes_per_search", ratio(float64(st.NodesVisited), float64(len(trie))), "count", fmt.Sprintf("searches=%d", len(trie)))
	put("trieindex.bdb_skip_ratio", ratio(float64(st.TriesSkipped), float64(st.TriesSkipped+st.TriesSearched)), "ratio",
		fmt.Sprintf("skipped=%d of %d tries", st.TriesSkipped, st.TriesSkipped+st.TriesSearched))

	pct("structure.self_us_p50", t.self["structure"], 0.5)
	hits, misses := f("cache.search_hits"), f("cache.search_misses")
	put("structure.lru_hit_ratio", ratio(hits, hits+misses), "ratio", fmt.Sprintf("hits=%.0f of %.0f", hits, hits+misses))
	put("structure.stream_resets_per_fragment", ratio(f("structure.stream_resets"), f("stream.fragments")), "ratio",
		fmt.Sprintf("resets=%d fragments=%d", c["structure.stream_resets"], c["stream.fragments"]))

	lit := t.layer("literal")
	pct("literal.determine_us_p50", lit, 0.5)
	pct("literal.determine_us_p99", lit, 0.99)
	put("literal.bk_nodes_per_vote", ratio(f("literal.bk_nodes"), f("literal.vote_calls")), "count",
		fmt.Sprintf("nodes=%d votes=%d", c["literal.bk_nodes"], c["literal.vote_calls"]))

	pct("core.self_us_p50", t.self["core"], 0.5)
	all := sumPrefix(c, "core.degraded.")
	put("core.degraded_ratio", ratio(float64(all-c["core.degraded.full"]), float64(all)), "ratio",
		fmt.Sprintf("degraded=%d of %d", all-c["core.degraded.full"], all))
	frag, fin := t.layer("core.fragment"), t.layer("core.finalize")
	pct("core.fragment_us_p50", frag, 0.5)
	pct("core.fragment_us_p99", frag, 0.99)
	pct("core.finalize_us_p99", fin, 0.99)
	pct("session.self_us_p50", t.self["session"], 0.5)

	pct("httpapi.self_us_p50", t.self["httpapi"], 0.5)
	pct("httpapi.self_us_p99", t.self["httpapi"], 0.99)
	put("httpapi.allocs_per_req", ratio(t.allocs, float64(t.requests)), "count", fmt.Sprintf("requests=%d", t.requests))
	mh, mm := f("server.memo_hit"), f("server.memo_miss")
	put("httpapi.memo_hit_ratio", ratio(mh, mh+mm), "ratio", fmt.Sprintf("hits=%.0f of %.0f", mh, mh+mm))
	writes := 0
	for i := range rp.w.ops {
		if rp.w.ops[i].kind == kindPatch && rp.r.answers[i].ok {
			writes++
		}
	}
	put("httpapi.memo_invalidated_per_write", ratio(f("server.memo_invalidated"), float64(writes)), "count",
		fmt.Sprintf("invalidated=%d writes=%d", c["server.memo_invalidated"], writes))

	var acquire, update []float64
	for _, s := range t.spans {
		if s.Layer == "registry" {
			if rp.w.ops[s.Op].kind == kindPatch {
				update = append(update, s.us())
			} else {
				acquire = append(acquire, s.us())
			}
		}
	}
	pct("registry.acquire_us_p50", acquire, 0.5)
	pct("registry.update_us_p50", update, 0.5)
	pct("wire.loopback_us_p50", t.self["wire"], 0.5)

	put("runtime.gc_cpu_ratio", rp.gcCPU, "ratio", "timed phases")
	put("bench.queue_wait_us_p99", quantile(rp.paced.queueWait, 0.99), "us", fmt.Sprintf("n=%d", len(rp.paced.queueWait)))
	put("bench.late_us_p99", quantile(rp.paced.late, 0.99), "us", fmt.Sprintf("n=%d", len(rp.paced.late)))
	put("bench.trace_overhead_ratio", ratio(t.replayUS, t.wireUS), "ratio", fmt.Sprintf("ops=%d", t.ops))

	fmt.Fprintf(rp.out, "trace oracle checked %d answers of the warm-up and timed phases in %.1fs | replayed %d of %d timed ops, %d spans | failed=%d reasons=%v\n",
		t.checked, t.checkS, t.ops, t.timed, len(t.spans), t.failed, t.reasons)
	timed := rp.paced.attempted + rp.sat.attempted + rp.warm.attempted
	failed := rp.paced.failed + rp.sat.failed + rp.warm.failed
	res.Attempted = timed + t.ops + t.warm
	res.Failed = failed + t.failed
	res.Correct = res.Failed == 0
	return res
}
