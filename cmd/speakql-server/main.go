// Command speakql-server serves the HTTP JSON backend for SpeakQL's
// interactive display (the analog of the paper's CloudLab backend); the
// API itself lives in internal/httpapi:
//
//	POST /api/correct         {"transcript": "...", "topk": 3}  (topk at most 20)
//	POST /api/session         {}                                → {"id": "..."}
//	POST /api/dictate         {"id": "...", "transcript": "...", "clause": true}
//	POST /api/stream/dictate  {"id": "...", "fragment": "..."}  (empty id auto-creates)
//	POST /api/stream/finalize {"id": "..."}
//	GET  /api/stream/events?session=ID                          (Server-Sent Events)
//	POST /api/edit            {"id": "...", "op": "replace", "pos": 2, "token": "Salary"}
//	POST /api/execute         {"sql": "SELECT ..."}
//	GET  /api/schema
//	GET  /api/stats
//	GET  /api/tenants                                           (list)
//	PUT  /api/tenants/{id}    {"tables": [...], "attributes": [...], ...}
//	GET  /api/tenants/{id}
//	PATCH /api/tenants/{id}   {"add_values": [...], ...}        (incremental)
//	DELETE /api/tenants/{id}
//
// Usage: speakql-server [-addr :8080] [-db employees|yelp]
// [-scale test|default|paper] [-index-cache FILE] [-timeout 10s] [-cachesize 1024]
// [-max-inflight n] [-max-queue n]
// [-session-ttl d] [-drain-timeout d] [-faults SPEC] [-pprof]
// [-max-tenants n] [-tenant-dir DIR] [-memo-size n]
// [-node ID] [-session-store DIR] [-validate off|bind]
//
// Validation (-validate=bind, DESIGN.md §15): after ranking, each top-k
// candidate is dry-run — parsed and bound against the demo database's
// schema, never executed — and candidates that fail are demoted below
// every passing one. Responses gain per-candidate "verdict" and "demoted"
// fields plus a top-level "validation" field; with -validate=off (the
// default) responses are byte-identical to servers without the stage.
// Non-seed tenants bind against a schema built from their catalogs.
// Validation is shed whenever the request degrades below full fidelity or
// its deadline passes.
//
// Multi-replica serving: -node names this replica (session ids become
// "<node>-s<N>" so replicas behind cmd/speakql-router never mint colliding
// ids) and -session-store points every replica at one shared snapshot
// directory. With both set, sessions checkpoint after each mutating request
// and restore on whichever replica the router's hash ring sends them to
// next — which is how a mid-stream dictation survives its replica dying.
// See cmd/speakql-router and DESIGN.md §14.
//
// -memo-size bounds the server-level correction memo: an LRU of fully
// rendered /api/correct responses keyed by (tenant, transcript, topk), with
// concurrent identical requests collapsed onto one computation
// (singleflight). Hits are byte-identical to the miss that populated them;
// faulted, degraded, and session-stateful requests bypass it entirely, and a
// tenant's entries are invalidated when its catalog changes (0 disables).
// The Go runtime reads a soft heap limit from the environment
// (GOMEMLIMIT=512MiB), so sustained overload shows up as GC backpressure in
// the /api/stats runtime block instead of an OOM kill.
//
// Multi-tenancy: the structure index, its searcher pools, and the search
// memo cache are schema-agnostic and shared by every tenant; only the
// literal catalog is per-tenant. Register catalogs via PUT /api/tenants/{id}
// and scope any correction endpoint with ?tenant=ID or the X-SpeakQL-Tenant
// header (unscoped requests hit the pinned seed tenant "default", the -db
// schema). -max-tenants bounds resident tenants with an LRU; evicted
// catalogs persist under -tenant-dir and lazy-load on next use. Without
// -tenant-dir nothing is ever evicted and tenants do not survive restarts.
//
// Clause streaming: /api/stream/dictate corrects one dictated fragment at a
// time, reusing the previous fragments' search and voting work;
// /api/stream/finalize closes the dictation with a full-fidelity re-pass;
// /api/stream/events pushes each fragment's corrected snapshot to the
// display over SSE (try `curl -N`). The dictate/finalize endpoints sit
// behind the same admission gate and per-request deadline as the other
// correction endpoints; the SSE feed does not (subscribers are cheap
// long-lived readers).
//
// -timeout bounds the work per /api/correct, /api/dictate, /api/stream, and
// /api/execute request (0 disables). /api/correct answers a topk above 20
// with 400 before any correction work: a topk is one search-heap slot and
// one literal determination per returned structure.
// -cachesize bounds the LRU memo cache of structure searches keyed by the
// masked transcript (0 disables; hit/miss/eviction counters appear in
// GET /api/stats).
//
// Resilience: -max-inflight bounds concurrent correction requests with a
// FIFO wait queue of -max-queue; excess load is shed with 503 + Retry-After
// (0 disables admission control). -session-ttl evicts sessions idle past
// the TTL (0 keeps them forever). -faults SPEC (or the SPEAKQL_FAULTS
// environment variable) arms deterministic fault injection for chaos
// rehearsal — see internal/faultinject for the spec grammar. GET /healthz
// answers liveness and GET /readyz readiness (not-ready once shutdown
// begins); SIGINT/SIGTERM drain in-flight requests for up to
// -drain-timeout before exiting. -pprof mounts net/http/pprof under
// /debug/pprof/.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"speakql"
	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/faultinject"
	"speakql/internal/grammar"
	"speakql/internal/httpapi"
	"speakql/internal/registry"
	"speakql/internal/session"
	"speakql/internal/sqlengine"
	"speakql/internal/structure"
	"speakql/internal/trieindex"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dbFlag := flag.String("db", "employees", "demo database: employees or yelp")
	scale := flag.String("scale", "test", "structure corpus scale: test, default, or paper")
	idxCache := flag.String("index-cache", "",
		"path to a persisted structure index: loaded if present, built and written otherwise")
	timeout := flag.Duration("timeout", httpapi.DefaultRequestTimeout,
		"per-request deadline for /api/correct, /api/dictate, /api/stream and /api/execute (0 disables)")
	cacheSize := flag.Int("cachesize", 1024,
		"LRU memo cache entries for structure searches, keyed by masked transcript (0 disables)")
	maxInflight := flag.Int("max-inflight", 64,
		"max concurrent correction requests admitted to /api/correct and /api/dictate (0 disables admission control)")
	maxQueue := flag.Int("max-queue", 128,
		"max correction requests waiting for admission before shedding with 503")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute,
		"evict sessions idle longer than this (0 keeps sessions forever)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second,
		"how long graceful shutdown waits for in-flight requests on SIGINT/SIGTERM")
	faults := flag.String("faults", "",
		"deterministic fault-injection spec, e.g. 'seed=7;structure:latency=5ms@0.1,error@0.05' (empty disables; SPEAKQL_FAULTS is the env fallback)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	maxTenants := flag.Int("max-tenants", 64,
		"max tenant catalogs resident in memory at once; least-recently-used tenants beyond this are evicted to -tenant-dir (0 disables eviction)")
	tenantDir := flag.String("tenant-dir", "",
		"directory persisting tenant catalogs across restarts and evictions (empty keeps every registered tenant resident)")
	memoSize := flag.Int("memo-size", 4096,
		"server-level correction memo entries: fully rendered /api/correct responses keyed by (tenant, transcript, topk), with singleflight collapse of concurrent identical requests (0 disables)")
	nodeID := flag.String("node", "",
		"replica node id: namespaces session ids so replicas behind speakql-router never collide (empty runs single-node)")
	sessionStore := flag.String("session-store", "",
		"directory for session snapshots shared by every replica (e.g. an NFS mount); enables checkpoint/restore handoff so a session survives its replica dying (empty disables)")
	validate := flag.String("validate", "off",
		"validation stage: off (disabled) or bind (parse + schema-bind each top-k candidate); failed candidates are demoted below every passing one — see DESIGN.md §15")
	flag.Parse()

	validateMode, okMode := core.ParseValidationMode(*validate)
	if !okMode {
		fmt.Fprintf(os.Stderr, "unknown -validate %q (want off or bind)\n", *validate)
		os.Exit(2)
	}
	validateCfg := core.ValidationConfig{Mode: validateMode}

	spec := *faults
	if spec == "" {
		spec = os.Getenv("SPEAKQL_FAULTS")
	}
	if spec != "" {
		inj, err := faultinject.Parse(spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -faults spec: %v\n", err)
			os.Exit(2)
		}
		faultinject.Set(inj)
		log.Printf("fault injection active: %s", inj)
	}

	var db *sqlengine.Database
	switch *dbFlag {
	case "employees":
		db = dataset.NewEmployeesDB(dataset.DefaultEmployeesConfig())
	case "yelp":
		db = dataset.NewYelpDB(dataset.DefaultYelpConfig())
	default:
		fmt.Fprintf(os.Stderr, "unknown -db %q\n", *dbFlag)
		os.Exit(2)
	}
	var gcfg speakql.GrammarConfig
	switch *scale {
	case "test":
		gcfg = speakql.TestGrammar()
	case "default":
		gcfg = speakql.DefaultGrammar()
	case "paper":
		gcfg = speakql.PaperGrammar()
	default:
		fmt.Fprintf(os.Stderr, "unknown -scale %q\n", *scale)
		os.Exit(2)
	}
	var eng *core.Engine
	if *idxCache != "" {
		ix, err := loadOrBuildIndex(*idxCache, gcfg)
		if err != nil {
			log.Fatal(err)
		}
		comp := structure.NewFromIndex(ix, trieindex.Options{}, gcfg)
		eng = core.NewEngineWithComponent(comp, speakql.CatalogOf(db), 5)
		eng.EnableSearchCache(*cacheSize)
	} else {
		log.Printf("building structure index (%s scale)…", *scale)
		var err error
		eng, err = speakql.NewEngine(speakql.Config{
			Grammar: gcfg, Catalog: speakql.CatalogOf(db),
			StructureCacheSize: *cacheSize,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	// Validation: the seed engine binds against the demo database's
	// schema; tenant engines get schemas synthesized from their catalogs by
	// the registry.
	if validateMode != core.ValidationOff {
		eng.SetValidation(validateCfg, db)
		log.Printf("validation stage active: mode=%s", validateMode)
	}
	// Multi-tenant registry: the engine's structure component and search
	// cache are the shared, schema-agnostic half every tenant reuses; the
	// demo database becomes the pinned seed tenant "default".
	reg, err := registry.New(registry.Config{
		Shared: registry.Shared{
			Structure:    eng.StructureComponent(),
			Cache:        eng.SearchCache(),
			TopKLiterals: 5,
			Validation:   validateCfg,
		},
		MaxLive: *maxTenants,
		Dir:     *tenantDir,
	})
	if err != nil {
		log.Fatal(err)
	}
	reg.SetSeed("default", eng, eng.Catalog())

	srv := httpapi.New(eng, db)
	srv.SetRegistry(reg)
	if *nodeID != "" {
		srv.SetNodeID(*nodeID)
	}
	if *sessionStore != "" {
		st, serr := session.NewDirStore(*sessionStore)
		if serr != nil {
			log.Fatalf("bad -session-store: %v", serr)
		}
		srv.SetSessionStore(st)
		log.Printf("session handoff enabled: snapshots in %s (node %q)", *sessionStore, *nodeID)
	}
	srv.SetRequestTimeout(*timeout)
	srv.SetAdmission(*maxInflight, *maxQueue)
	srv.SetSessionTTL(*sessionTTL)
	srv.SetCorrectionMemo(*memoSize)
	defer srv.Close()
	if *pprofFlag {
		srv.EnablePprof()
		log.Printf("pprof enabled at /debug/pprof/")
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (db=%s, request-timeout=%s, cachesize=%d, max-inflight=%d, max-queue=%d, session-ttl=%s, max-tenants=%d, tenant-dir=%q)",
			*addr, db.Name, *timeout, *cacheSize, *maxInflight, *maxQueue, *sessionTTL, *maxTenants, *tenantDir)
		errCh <- hs.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: flip readiness first so load balancers stop routing
	// here, then let in-flight requests finish bounded by -drain-timeout.
	log.Printf("shutdown signal received; draining for up to %s…", *drainTimeout)
	srv.SetReady(false)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drainCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			log.Printf("drain timeout hit; closing remaining connections")
			_ = hs.Close()
		} else {
			log.Printf("shutdown: %v", err)
		}
	}
	log.Printf("server stopped")
}

// loadOrBuildIndex serves the index cached at path if the file was built
// from gcfg. The file is one JSON line holding the grammar.GenConfig it was
// built from, then the index in trieindex's Save format. A missing,
// unreadable, truncated or older-format file, or one built for another
// config, is logged and replaced: the index is built, written to a temp
// file beside path and renamed over it, so no reader ever sees a partial
// file. A failed write is logged, and the built index is served anyway.
func loadOrBuildIndex(path string, gcfg grammar.GenConfig) (*trieindex.Index, error) {
	ix, err := readIndexCache(path, gcfg)
	if err == nil {
		log.Printf("loaded structure index from %s (%d structures)", path, ix.Total())
		return ix, nil
	}
	log.Printf("index cache %s not used (%v); building structure index…", path, err)
	if ix, err = structure.BuildIndex(gcfg, false); err != nil {
		return nil, err
	}
	if err := writeIndexCache(path, gcfg, ix); err != nil {
		log.Printf("index cache not written: %v", err)
	} else {
		log.Printf("wrote index cache to %s (%d structures)", path, ix.Total())
	}
	return ix, nil
}

// readIndexCache reads the index cached at path, failing unless its header
// names gcfg.
func readIndexCache(path string, gcfg grammar.GenConfig) (*trieindex.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	line, err := br.ReadSlice('\n') // bounded by the buffer, however long a headerless file is
	if err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	var built grammar.GenConfig
	if err := json.Unmarshal(line, &built); err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	if built != gcfg {
		return nil, fmt.Errorf("built for grammar %+v, want %+v", built, gcfg)
	}
	return trieindex.ReadIndex(br)
}

// writeIndexCache writes the header and ix to a temp file of its own beside
// path and renames it over path. It does not Sync: a file that a machine
// crash leaves short fails to load and is rebuilt like any other.
func writeIndexCache(path string, gcfg grammar.GenConfig, ix *trieindex.Index) error {
	header, err := json.Marshal(gcfg)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // fails harmlessly once renamed
	// CreateTemp's mode is 0600; readers running as another user need the
	// 0644 that os.Create gives under the usual umask.
	err = tmp.Chmod(0o644)
	if err == nil {
		_, err = tmp.Write(append(header, '\n'))
	}
	if err == nil {
		err = ix.Save(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
