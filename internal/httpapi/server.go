// Package httpapi implements the HTTP JSON backend for SpeakQL's
// interactive display (the analog of the paper's CloudLab backend):
// transcript correction, clause-level re-dictation, incremental
// clause-streaming dictation with a Server-Sent Events feed
// (/api/stream/dictate, /api/stream/finalize, /api/stream/events),
// SQL-keyboard edits with effort accounting, query execution against the
// demo database, the schema lists the SQL Keyboard renders, and per-stage
// pipeline statistics. cmd/speakql-server wires it to a listener.
//
// Tenants: every request resolves its tenant in a schema registry — the
// one SetRegistry installs, or, without one, a registry whose only tenant
// is the engine New was given.
//
// Concurrency: the engine is read-only and shared freely; sessions live in
// a sync.Map, so a lookup never waits behind an eviction scan, and each
// session has its own lock, so dictations in unrelated sessions correct in
// parallel and only same-session requests serialize.
// Correction-running endpoints (/api/correct, /api/dictate,
// /api/stream/*) run under a per-request deadline so one pathological
// transcript cannot pin a worker.
//
// Resilience: the correction endpoints sit behind an admission gate
// (admission.go) that bounds in-flight work and sheds overload with 503 +
// Retry-After; every handler runs inside panic-recovery middleware that
// converts a panicking request into a 500 JSON error (counter
// panic.recovered) instead of a dead process; responses report the
// engine's graceful-degradation level; GET /healthz and GET /readyz serve
// liveness and readiness for the process lifecycle; and idle sessions are
// evicted by a TTL sweeper so Server.sessions cannot grow forever.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"speakql/internal/core"
	"speakql/internal/faultinject"
	"speakql/internal/obs"
	"speakql/internal/registry"
	"speakql/internal/session"
	"speakql/internal/sqlengine"
	"speakql/internal/stream"
)

// DefaultRequestTimeout bounds the correction work done for one
// /api/correct or /api/dictate request. The paper's premise is sub-second
// interaction; anything this far past it is better cut off partial.
const DefaultRequestTimeout = 10 * time.Second

// maxBodyBytes bounds every request body (1 MiB): the largest legitimate
// payload is a long dictated transcript, orders of magnitude smaller.
const maxBodyBytes = 1 << 20

// maxTopK bounds the topk of POST /api/correct. Each requested structure
// is one slot in the search heap and one literal determination, and each
// distinct topk is its own correction-memo key; clients ask for 1–5.
const maxTopK = 20

// sessionEntry pairs one session with its own lock: holding it serializes
// requests within that session without blocking any other session.
type sessionEntry struct {
	mu   sync.Mutex
	sess *session.Session
	// tenant is the owning tenant's ID, fixed at session creation: evicting
	// or deleting that tenant closes this session's event feed, and the
	// session keeps correcting against the catalog it was created with (the
	// tenant handed out at creation is immutable).
	tenant string
	// events fans the session's clause-streaming snapshots out to SSE
	// subscribers. Created with the entry and owned by the Server (not the
	// session) so eviction and shutdown can close it — ending every
	// subscriber — without waiting on mu behind an in-flight correction.
	events *stream.Broadcaster
	// lastUsed is the unix-nano timestamp of the last request that touched
	// this session; the TTL sweeper evicts entries idle past the TTL.
	lastUsed atomic.Int64
}

func (e *sessionEntry) touch() { e.lastUsed.Store(time.Now().UnixNano()) }

// Server is the HTTP backend: one correction engine and demo database
// shared across every request, a registry of interactive sessions (each
// with its own lock and event broadcaster), and the resilience machinery —
// admission gate, panic recovery, TTL sweeper, readiness flag. Construct
// with New, configure with the Set* methods, then mount Handler.
type Server struct {
	engine  *core.Engine
	db      *sqlengine.Database
	timeout time.Duration
	reg     *obs.Registry
	pprof   bool
	gate    *gate // nil = unbounded admission

	// tenants is the schema registry every request resolves its tenant in:
	// New pins the engine as its seed, and SetRegistry replaces it.
	tenants *registry.Registry
	seedID  string // tenant ID requests resolve to when they name none

	ready atomic.Bool // served by /readyz; starts true (engine is built)

	sessionTTL  time.Duration // idle-session eviction TTL; 0 = never evict
	sweeperOnce sync.Once
	stopOnce    sync.Once
	stop        chan struct{}

	// sessions maps a session id to its *sessionEntry. The eviction scan
	// (evictSessions) holds no lock across its callback, so a stalled scan
	// never delays a lookup.
	sessions sync.Map
	nextID   atomic.Int64

	// memo is the server-level correction memo (memo.go); nil = disabled.
	memo *correctionMemo

	// nodeID namespaces session ids per replica (handoff.go); "" keeps the
	// single-process "s<N>" form.
	nodeID string
	// store is the fleet's session-snapshot store (handoff.go); nil disables
	// checkpointing and restore.
	store session.Store
}

// seedTenantID names the engine passed to New until SetRegistry installs a
// registry with its own seed.
const seedTenantID = "default"

// New creates a Server over the given engine and database, reporting stats
// from the default obs registry. The engine is the seed tenant of a
// registry holding nothing else until SetRegistry replaces it. The server
// starts ready (the engine — including its structure index — must be built
// before New is called); SetReady(false) flips /readyz for shutdown
// draining.
func New(engine *core.Engine, db *sqlengine.Database) *Server {
	s := &Server{
		engine:  engine,
		db:      db,
		timeout: DefaultRequestTimeout,
		reg:     obs.Default(),
		stop:    make(chan struct{}),
	}
	reg, err := registry.New(registry.Config{Shared: registry.Shared{
		Structure: engine.StructureComponent(),
		Cache:     engine.SearchCache(),
	}})
	if err != nil {
		panic(fmt.Sprintf("httpapi: %v", err)) // only an engine without a structure component fails
	}
	reg.SetSeed(seedTenantID, engine, engine.Catalog())
	s.SetRegistry(reg)
	s.ready.Store(true)
	return s
}

// SetRequestTimeout overrides the per-request correction deadline
// (0 disables it). Call before serving.
func (s *Server) SetRequestTimeout(d time.Duration) { s.timeout = d }

// SetAdmission bounds the correction endpoints to maxInflight concurrent
// requests with a FIFO wait queue of maxQueue; excess load is shed with
// 503 + Retry-After. maxInflight <= 0 disables the gate. Call before
// Handler.
func (s *Server) SetAdmission(maxInflight, maxQueue int) {
	if maxInflight <= 0 {
		s.gate = nil
		return
	}
	s.gate = newGate(maxInflight, maxQueue)
}

// SetSessionTTL enables idle-session eviction: sessions untouched for ttl
// are removed by a background sweeper started with the handler (counter
// sessions_evicted; later requests see 404). ttl should comfortably exceed
// the request timeout so an in-flight dictation cannot be evicted under
// its caller. 0 disables eviction. Call before Handler.
func (s *Server) SetSessionTTL(ttl time.Duration) { s.sessionTTL = ttl }

// SetReady flips the /readyz answer: the server binary marks not-ready at
// the start of graceful shutdown so load balancers drain it.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// SetCorrectionMemo enables the server-level correction memo: up to size
// fully rendered /api/correct responses cached by (tenant, transcript,
// topk), with singleflight collapse of concurrent identical requests (see
// memo.go for what is never cached). size <= 0 disables the memo. Call
// before Handler.
func (s *Server) SetCorrectionMemo(size int) {
	if size <= 0 {
		s.memo = nil
		return
	}
	s.memo = newCorrectionMemo(size)
}

// Close stops the background session sweeper and closes every session's
// event broadcaster, terminating all SSE feeds (idempotent). The HTTP
// handler itself holds no other background state.
func (s *Server) Close() {
	s.stopOnce.Do(func() {
		close(s.stop)
		// Broadcasters have their own lock; closing them never waits on a
		// session's mu, so shutdown cannot wedge behind a correction.
		s.sessions.Range(func(_, v any) bool {
			v.(*sessionEntry).events.Close()
			return true
		})
	})
}

// SetRegistry installs the multi-tenant schema registry in place of the
// seed-only one New made: every endpoint resolves its tenant there
// (X-SpeakQL-Tenant header or ?tenant= param, defaulting to the registry's
// seed tenant), and evicting or deleting a tenant closes its sessions'
// event feeds. Call before Handler.
func (s *Server) SetRegistry(reg *registry.Registry) {
	s.tenants = reg
	s.seedID = reg.SeedID()
	reg.SetEvictHook(s.closeTenantSessions)
}

// closeTenantSessions evicts every session owned by a tenant — an evicted
// tenant must not keep feeding a display that can no longer dictate to it.
func (s *Server) closeTenantSessions(tenant string) {
	s.evictSessions(func(e *sessionEntry) bool { return e.tenant == tenant })
}

// evictSessions evicts every session remove selects and returns their ids:
// each is unregistered, its event broadcaster closed (ending its SSE feeds)
// and its snapshot deleted, so it dies fleet-wide, and each counts under
// sessions_evicted. Range holds no lock across its callback, so a stalled
// scan never delays a lookup (TestShardIndependence), and CompareAndDelete
// drops only the entry remove saw, never one a concurrent restore put in
// its place. Broadcasters have their own lock, so an in-flight correction
// holding a session's mu never wedges an eviction
// (TestEvictionShardIsolation).
func (s *Server) evictSessions(remove func(e *sessionEntry) bool) []string {
	var ids []string
	s.sessions.Range(func(k, v any) bool {
		e := v.(*sessionEntry)
		if !remove(e) || !s.sessions.CompareAndDelete(k, v) {
			return true
		}
		id := k.(string)
		e.events.Close()
		// A restore racing this delete re-checks the store after registering
		// (handoff.go) and unwinds if the delete won.
		if s.store != nil {
			_ = s.store.Delete(id)
		}
		ids = append(ids, id)
		return true
	})
	if len(ids) > 0 {
		s.reg.Add("sessions_evicted", int64(len(ids)))
	}
	return ids
}

// sessionCount counts live sessions (approximate under concurrent
// mutation, exact when quiescent).
func (s *Server) sessionCount() int {
	n := 0
	s.sessions.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// tenantFor resolves the request's tenant: the ?tenant= query parameter
// wins, then the X-SpeakQL-Tenant header, then the seed tenant. Each
// resolution bumps the per-tenant request counter (tenant.<id>.requests).
func (s *Server) tenantFor(r *http.Request) (*registry.Tenant, error) {
	id := r.URL.Query().Get("tenant")
	if id == "" {
		id = r.Header.Get("X-SpeakQL-Tenant")
	}
	if id == "" {
		id = s.seedID
	}
	t, err := s.tenants.Acquire(id)
	if err != nil {
		return nil, err
	}
	s.reg.Add("tenant."+t.ID+".requests", 1)
	return t, nil
}

// EnablePprof mounts net/http/pprof's handlers under /debug/pprof/ on the
// next Handler call, so search hot spots can be profiled in situ. Off by
// default: the profile endpoints expose internals and cost CPU, so they are
// opt-in (speakql-server's -pprof flag). Call before Handler.
func (s *Server) EnablePprof() { s.pprof = true }

// requestCtx derives the correction context for one request: the client
// disconnecting or the server deadline expiring, whichever first.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// withRecover is the panic-isolation middleware: a panic anywhere in the
// handler — a poisoned transcript, an injected fault — becomes a 500 JSON
// error plus a panic.recovered counter instead of a dead process.
// http.ErrAbortHandler is re-raised (it is net/http's own control flow).
func (s *Server) withRecover(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.reg.Add("panic.recovered", 1)
			writeJSON(w, http.StatusInternalServerError, map[string]any{
				"error":       fmt.Sprintf("internal error: %v", rec),
				"degradation": core.DegradationShed,
			})
		}()
		h(w, r)
	}
}

// gated applies the per-request deadline and the admission gate: the
// request's remaining deadline also bounds its time in the wait queue, so
// a request that would expire while queued is shed immediately with 503 +
// Retry-After (counter admission.shed).
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		r = r.WithContext(ctx)
		if s.gate != nil {
			if err := s.gate.Acquire(ctx); err != nil {
				s.reg.Add("admission.shed", 1)
				w.Header().Set("Retry-After", strconv.Itoa(s.gate.retryAfterHint()))
				writeJSON(w, http.StatusServiceUnavailable, map[string]any{
					"error":       err.Error(),
					"degradation": core.DegradationShed,
				})
				return
			}
			defer s.gate.Release()
		}
		h(w, r)
	}
}

// Handler returns the API's handler — the routed endpoints wrapped in the
// JSON not-found/method-not-allowed fallback — and starts the idle-session
// sweeper when a TTL is configured.
func (s *Server) Handler() http.Handler {
	s.startSweeper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/correct", s.withRecover(s.gated(s.handleCorrect)))
	mux.HandleFunc("POST /api/session", s.withRecover(s.handleNewSession))
	mux.HandleFunc("POST /api/dictate", s.withRecover(s.gated(s.handleDictate)))
	mux.HandleFunc("POST /api/stream/dictate", s.withRecover(s.gated(s.handleStreamDictate)))
	mux.HandleFunc("POST /api/stream/finalize", s.withRecover(s.gated(s.handleStreamFinalize)))
	mux.HandleFunc("GET /api/stream/events", s.withRecover(s.handleStreamEvents))
	mux.HandleFunc("POST /api/edit", s.withRecover(s.handleEdit))
	mux.HandleFunc("POST /api/execute", s.withRecover(s.gated(s.handleExecute)))
	mux.HandleFunc("GET /api/schema", s.withRecover(s.handleSchema))
	mux.HandleFunc("GET /api/keyboard", s.withRecover(s.handleKeyboard))
	mux.HandleFunc("GET /api/stats", s.withRecover(s.handleStats))
	mux.HandleFunc("GET /api/tenants", s.withRecover(s.handleTenantList))
	mux.HandleFunc("PUT /api/tenants/{id}", s.withRecover(s.handleTenantPut))
	mux.HandleFunc("GET /api/tenants/{id}", s.withRecover(s.handleTenantGet))
	mux.HandleFunc("PATCH /api/tenants/{id}", s.withRecover(s.handleTenantPatch))
	mux.HandleFunc("DELETE /api/tenants/{id}", s.withRecover(s.handleTenantDelete))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return jsonFallback(mux)
}

// fallbackMethods is the method set jsonFallback probes to distinguish "no
// such route" from "route exists, wrong method".
var fallbackMethods = []string{
	http.MethodGet, http.MethodHead, http.MethodPost,
	http.MethodPut, http.MethodPatch, http.MethodDelete,
}

// jsonFallback wraps a ServeMux so unmatched requests get the same JSON
// error envelope every API error uses, instead of net/http's plain-text
// bodies: 405 with an Allow header when the path exists under some other
// method, 404 otherwise. API clients parse {"error": ...} uniformly; a
// content-type flip on exactly the error paths is how JSON parsing blows
// up in the display.
func jsonFallback(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := mux.Handler(r); pattern != "" {
			mux.ServeHTTP(w, r)
			return
		}
		// The mux matched nothing. Probe the other methods with shallow
		// request copies: any hit means the path exists and this is a method
		// mismatch (405 + Allow), no hit means the path is unknown (404).
		var allowed []string
		for _, m := range fallbackMethods {
			if m == r.Method {
				continue
			}
			probe := *r
			probe.Method = m
			if _, pattern := mux.Handler(&probe); pattern != "" {
				if m == http.MethodHead && len(allowed) > 0 && allowed[len(allowed)-1] == http.MethodGet {
					continue // GET patterns always match HEAD; don't double-list
				}
				allowed = append(allowed, m)
			}
		}
		if len(allowed) > 0 {
			w.Header().Set("Allow", strings.Join(allowed, ", "))
			writeJSON(w, http.StatusMethodNotAllowed, map[string]string{
				"error": fmt.Sprintf("method %s not allowed for %s (allowed: %s)",
					r.Method, r.URL.Path, strings.Join(allowed, ", ")),
			})
			return
		}
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": fmt.Sprintf("no such route %s", r.URL.Path),
		})
	})
}

// startSweeper launches the idle-session eviction loop once, at a quarter
// of the TTL (sessions linger at most ~1.25×TTL). Close stops it.
func (s *Server) startSweeper() {
	if s.sessionTTL <= 0 {
		return
	}
	s.sweeperOnce.Do(func() {
		interval := s.sessionTTL / 4
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					s.evictIdleSessions(time.Now())
				}
			}
		}()
	})
}

// evictIdleSessions evicts sessions idle past the TTL and returns how many
// went (counter sessions_evicted). TTL eviction is fleet-wide death: no
// other replica restores a session this one declared idle.
func (s *Server) evictIdleSessions(now time.Time) int {
	if s.sessionTTL <= 0 {
		return 0
	}
	cutoff := now.Add(-s.sessionTTL).UnixNano()
	return len(s.evictSessions(func(e *sessionEntry) bool { return e.lastUsed.Load() < cutoff }))
}

// writeJSON renders v through a pooled buffer+encoder and sends it in one
// Write (see encode.go) — the encoding itself is identical to the former
// per-call json.NewEncoder(w).Encode(v), including the trailing newline.
func writeJSON(w http.ResponseWriter, code int, v any) {
	e := getEncoder()
	if err := e.enc.Encode(v); err != nil {
		e.release()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		return
	}
	writeBody(w, code, e.buf.Bytes())
	e.release()
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decode reads one JSON request body, bounded to maxBodyBytes and with
// unknown fields rejected, so garbage is answered with a clear 400 instead
// of being silently ignored (or buffered without limit).
func decode[T any](w http.ResponseWriter, r *http.Request, v *T) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer r.Body.Close()
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		switch {
		case errors.As(err, &mbe):
			return fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
		case strings.HasPrefix(err.Error(), "json: unknown field"):
			return fmt.Errorf("unknown request field %s (check the endpoint's schema)",
				strings.TrimPrefix(err.Error(), "json: unknown field "))
		default:
			return fmt.Errorf("malformed request body: %v", err)
		}
	}
	return nil
}

type correctReq struct {
	Transcript string `json:"transcript"`
	TopK       int    `json:"topk"`
}

type candidateJSON struct {
	SQL       string   `json:"sql"`
	Structure []string `json:"structure"`
	Distance  float64  `json:"distance"`
	// Verdict and Demoted surface the validation stage (DESIGN.md §15).
	// Both carry omitempty so responses from a -validate=off server stay
	// byte-identical to the pre-validation wire format
	// (TestValidationOffWireUnchanged).
	Verdict string `json:"verdict,omitempty"`
	Demoted bool   `json:"demoted,omitempty"`
}

func (s *Server) handleCorrect(w http.ResponseWriter, r *http.Request) {
	span := s.reg.StartSpan("http.correct")
	defer span.End()
	var req correctReq
	if err := decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.TopK < 1 {
		req.TopK = 1
	}
	if req.TopK > maxTopK {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("topk %d exceeds the maximum of %d", req.TopK, maxTopK))
		return
	}
	t, err := s.tenantFor(r)
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	ctx := r.Context()

	// Correction memo: serve repeated stateless corrections without touching
	// the engine, collapsing concurrent identical requests onto one leader.
	// Bypassed entirely while fault injection is armed — rehearsals must hit
	// the real pipeline, and injected failures must never be replayed.
	var (
		key    string
		leader *memoCall
	)
	if s.memo != nil && !faultinject.Enabled() {
		key = memoKey(t.ID, req.Transcript, req.TopK, string(t.Engine.ValidationMode()))
		if body, ok := s.memo.lookup(key); ok {
			s.reg.Add("server.memo_hit", 1)
			writeBody(w, http.StatusOK, body)
			return
		}
		call, isLeader := s.memo.begin(key)
		if isLeader {
			leader = call
		} else {
			select {
			case <-call.done:
				if call.ok {
					s.reg.Add("server.memo_inflight_join", 1)
					writeBody(w, http.StatusOK, call.body)
					return
				}
				// The leader finished without a shareable result (failed or
				// degraded): compute independently.
			case <-ctx.Done():
				// Our own deadline is up; don't keep waiting on the leader —
				// run the pipeline, which will degrade or shed on its own.
			}
		}
		s.reg.Add("server.memo_miss", 1)
	}
	// A leader must always finish its singleflight — including on the error
	// and panic paths — or followers would block until their deadlines.
	cached := false
	var cachedBody []byte
	if leader != nil {
		defer func() {
			ev := s.memo.finish(key, leader, cachedBody, cached)
			s.reg.Add("server.memo_evictions", int64(ev))
		}()
	}

	out := t.Engine.CorrectTopKContext(ctx, req.Transcript, req.TopK)
	if out.Err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error":       out.Err.Error(),
			"degradation": out.Degradation,
		})
		return
	}
	deadlineHit := ctx.Err() != nil
	e := getEncoder()
	if err := e.encodeCorrect(&out, deadlineHit); err != nil {
		e.release()
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	// Only full-fidelity, deadline-clean responses are cacheable: degraded
	// output depends on transient load, not on the transcript.
	if leader != nil && !deadlineHit && out.Degradation == core.DegradationFull {
		cachedBody = append([]byte(nil), e.buf.Bytes()...)
		cached = true
	}
	writeBody(w, http.StatusOK, e.buf.Bytes())
	e.release()
}

func (s *Server) handleNewSession(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	id, err := s.newSession(t)
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "tenant": t.ID})
}

// newSession creates a session entry — display session (correcting against
// the tenant's engine), event broadcaster, streaming config — and registers
// it under a fresh id. The entry is fully wired before it becomes visible
// in the map, so concurrent requests never see a session without its
// broadcaster. It fails with registry.ErrUnknownTenant when the tenant was
// deleted after the caller acquired it.
func (s *Server) newSession(t *registry.Tenant) (string, error) {
	id := "s" + strconv.FormatInt(s.nextID.Add(1), 10)
	if s.nodeID != "" {
		id = s.nodeID + "-" + id
	}
	entry := &sessionEntry{sess: session.New(t.Engine), events: stream.NewBroadcaster(), tenant: t.ID}
	entry.sess.SetStreamConfig(stream.Config{Events: entry.events, Session: id})
	entry.touch()
	// Checkpoint the empty session before it becomes visible: a session
	// created moments before its replica dies is still restorable elsewhere.
	s.checkpointLocked(id, entry)
	s.sessions.Store(id, entry)
	// Double-check against a racing DELETE, which unregisters the tenant
	// before its evict hook closes the tenant's sessions: an entry registered
	// after the hook ran would keep its feed open with nothing left to close
	// it. Checking *after* registering means a Delete that wins this race is
	// always observed here (the same register-then-recheck as
	// lookupSession's restore), and one that loses it finds the entry.
	if !s.tenants.Known(t.ID) {
		s.sessions.CompareAndDelete(id, entry)
		entry.events.Close()
		if s.store != nil {
			_ = s.store.Delete(id) // a leftover snapshot never restores: its tenant is gone
		}
		return "", fmt.Errorf("%w: %q", registry.ErrUnknownTenant, t.ID)
	}
	return id, nil
}

// session looks up a session entry, refreshing its idle timestamp and
// bumping the owning tenant's request counter.
func (s *Server) session(id string) (*sessionEntry, bool) {
	v, ok := s.sessions.Load(id)
	if !ok {
		return nil, false
	}
	entry := v.(*sessionEntry)
	entry.touch()
	if entry.tenant != "" {
		s.reg.Add("tenant."+entry.tenant+".requests", 1)
	}
	return entry, true
}

type dictateReq struct {
	ID         string `json:"id"`
	Transcript string `json:"transcript"`
	Clause     bool   `json:"clause"`
}

func (s *Server) handleDictate(w http.ResponseWriter, r *http.Request) {
	span := s.reg.StartSpan("http.dictate")
	defer span.End()
	var req dictateReq
	if err := decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	var out core.Output
	var resp map[string]any
	resumedNs, ok := s.withSession(req.ID, func(entry *sessionEntry) {
		if req.Clause {
			out = entry.sess.DictateClauseContext(ctx, req.Transcript)
		} else {
			out = entry.sess.DictateFullContext(ctx, req.Transcript)
		}
		s.checkpointLocked(req.ID, entry)
		resp = sessionState(entry.sess)
	})
	if !ok {
		s.writeSessionMiss(w, req.ID)
		return
	}
	if out.Err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error":       out.Err.Error(),
			"degradation": out.Degradation,
		})
		return
	}
	resp["degradation"] = out.Degradation
	resp["deadline_hit"] = ctx.Err() != nil
	markResumed(w, resp, resumedNs)
	writeJSON(w, http.StatusOK, resp)
}

type editReq struct {
	ID    string `json:"id"`
	Op    string `json:"op"` // insert | delete | replace
	Pos   int    `json:"pos"`
	Token string `json:"token"`
}

func (s *Server) handleEdit(w http.ResponseWriter, r *http.Request) {
	span := s.reg.StartSpan("http.edit")
	defer span.End()
	var req editReq
	if err := decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	switch req.Op {
	case "insert", "delete", "replace":
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown op %q", req.Op))
		return
	}
	var resp map[string]any
	resumedNs, ok := s.withSession(req.ID, func(entry *sessionEntry) {
		switch req.Op {
		case "insert":
			entry.sess.InsertToken(req.Pos, req.Token)
		case "delete":
			entry.sess.DeleteToken(req.Pos)
		case "replace":
			entry.sess.ReplaceToken(req.Pos, req.Token)
		}
		s.checkpointLocked(req.ID, entry)
		resp = sessionState(entry.sess)
	})
	if !ok {
		s.writeSessionMiss(w, req.ID)
		return
	}
	markResumed(w, resp, resumedNs)
	writeJSON(w, http.StatusOK, resp)
}

func sessionState(sess *session.Session) map[string]any {
	return map[string]any{
		"sql":        sess.SQL(),
		"tokens":     sess.Tokens(),
		"touches":    sess.Touches(),
		"dictations": sess.Dictations(),
		"effort":     sess.Effort(),
	}
}

type executeReq struct {
	SQL string `json:"sql"`
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	span := s.reg.StartSpan("http.execute")
	defer span.End()
	var req executeReq
	if err := decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	t, err := s.tenantFor(r)
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	// Only the seed tenant has a demo database behind it; other tenants
	// register schemas, not data.
	if t.ID != s.seedID {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("tenant %q has no executable database (execution is seed-tenant only)", t.ID))
		return
	}
	// Client SQL runs under the request deadline: each subquery runs once,
	// but a cross product whose every row scans a long IN list is still a
	// short body that can cost minutes.
	res, err := sqlengine.RunContext(r.Context(), s.db, req.SQL)
	if errors.Is(err, context.DeadlineExceeded) {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error": err.Error(),
			"code":  "execute.deadline",
		})
		return
	}
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	rows := make([][]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		rows = append(rows, cells)
	}
	writeJSON(w, http.StatusOK, map[string]any{"cols": res.Cols, "rows": rows})
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenantFor(r)
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	// The seed tenant fronts the demo database and reports typed columns;
	// registered tenants have only their catalog — table and attribute
	// names — which is exactly what the SQL Keyboard needs.
	if t.ID == s.seedID {
		tables := map[string][]string{}
		for _, tb := range s.db.Tables() {
			var cols []string
			for _, c := range tb.Cols {
				cols = append(cols, c.Name+" "+c.Type.String())
			}
			tables[tb.Name] = cols
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"database": s.db.Name,
			"tables":   tables,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"database":   t.ID,
		"tables":     t.Catalog.Tables(),
		"attributes": t.Catalog.Attributes(),
	})
}

// handleHealthz is liveness: the process is up and serving. It stays 200
// during shutdown draining (the process is alive) — readiness is what
// flips.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 only while the server should receive new
// traffic — the index is built/loaded (true from construction) and the
// server is not draining for shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleStats serves the obs registry snapshot: per-stage span counts and
// cumulative/max latencies plus the pipeline's monotonic counters. Stage
// keys: http.* wrap whole handlers; core.correct, structure.determine, and
// literal.determine time the engine stages of Figure 2.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	stages := map[string]any{}
	for _, name := range snap.StageNames() {
		st := snap.Stages[name]
		stages[name] = map[string]any{
			"count":    st.Count,
			"total_ns": int64(st.Total),
			"max_ns":   int64(st.Max),
			"mean_ns":  int64(st.Mean()),
		}
	}
	// The latency block serves each endpoint class's bucketed distribution
	// (HDR-style log-linear histograms fed by the http.* spans): the tail the
	// serving tier is tuned against, not just the mean.
	latency := map[string]any{}
	for name, st := range snap.Stages {
		cls, ok := strings.CutPrefix(name, "http.")
		if !ok {
			continue
		}
		latency[cls] = map[string]any{
			"count":  st.Count,
			"p50_ms": float64(st.P50) / 1e6,
			"p90_ms": float64(st.P90) / 1e6,
			"p99_ms": float64(st.P99) / 1e6,
			"max_ms": float64(st.Max) / 1e6,
		}
	}
	rt := obs.ReadRuntime()
	resp := map[string]any{
		"stages":   stages,
		"counters": snap.Counters,
		"sessions": s.sessionCount(),
		"latency":  latency,
		// The runtime block reads the Go runtime's own health signals via
		// runtime/metrics: heap residency, GC pause tail, goroutine count.
		"runtime": map[string]any{
			"heap_inuse_bytes": rt.HeapInuseBytes,
			"heap_free_bytes":  rt.HeapFreeBytes,
			"goroutines":       rt.Goroutines,
			"gc_cycles":        rt.GCCycles,
			"gc_pause_p50_ms":  float64(rt.GCPauseP50) / 1e6,
			"gc_pause_p99_ms":  float64(rt.GCPauseP99) / 1e6,
			"gc_pause_max_ms":  float64(rt.GCPauseMax) / 1e6,
		},
		// The literal block groups the voting counters (vote calls, BK nodes
		// visited, catalog entries the index skipped).
		"literal": map[string]any{
			"counters": snap.CountersWithPrefix("literal."),
		},
		// The stream block groups the clause-streaming counters: fragments
		// corrected, dictations finalized, duplicate acks, events dropped on
		// slow SSE subscribers, feed connections, injected faults, and
		// handoff resumes and losses.
		"stream": snap.CountersWithPrefix("stream."),
		// The resilience block groups the overload/failure story: per-level
		// degradation counts, recovered panics, shed requests, evicted
		// sessions, and whether fault injection is rehearsing failures.
		"resilience": map[string]any{
			"degraded":         snap.CountersWithPrefix("core.degraded."),
			"panics_recovered": snap.Counters["panic.recovered"],
			"admission_shed":   snap.Counters["admission.shed"],
			"sessions_evicted": snap.Counters["sessions_evicted"],
			"faults_enabled":   faultinject.Enabled(),
			// draining mirrors /readyz: an atomic load, so the stats path can
			// never tear against a concurrent SetReady flip mid-shutdown.
			"draining": !s.ready.Load(),
		},
	}
	if s.gate != nil {
		resp["admission"] = s.gate.stats()
	}
	// The handoff block groups the serving-tier session-mobility story:
	// which replica this is, how many snapshots the fleet store holds, and
	// the checkpoint/restore/resume/lost counters.
	if s.store != nil {
		snapshots := -1
		if ids, err := s.store.List(); err == nil {
			snapshots = len(ids)
		}
		resp["handoff"] = map[string]any{
			"node":        s.nodeID,
			"snapshots":   snapshots,
			"checkpoints": snap.Counters["session.checkpoints"],
			"restores":    snap.Counters["session.restores"],
			"resumed":     snap.Counters["stream.resumed"],
			"lost":        snap.Counters["stream.lost"],
		}
	}
	// The validate block reports the validation stage (DESIGN.md §15): the
	// active mode plus the validate.* counters — candidates checked,
	// per-verdict tallies, demotions, sheds, faults.
	if mode := s.engine.ValidationMode(); mode != core.ValidationOff {
		resp["validate"] = map[string]any{
			"mode":     string(mode),
			"counters": snap.CountersWithPrefix("validate."),
		}
	}
	// The memo block pairs the correction memo's structural state with its
	// hit/miss/join counters.
	if s.memo != nil {
		resp["memo"] = map[string]any{
			"lru":      s.memo.stats(),
			"counters": snap.CountersWithPrefix("server.memo_"),
		}
	}
	// The registry block groups multi-tenancy: residency against the LRU
	// bound, lifecycle counters (cold loads, warm hits, evictions, dedup'd
	// loads), and the per-tenant request labels.
	rs := s.tenants.Stats()
	resp["registry"] = map[string]any{
		"resident":   rs.Resident,
		"capacity":   rs.Capacity,
		"known":      rs.Known,
		"loading":    rs.Loading,
		"persistent": rs.Persistent,
		"seed":       s.seedID,
		"counters":   snap.CountersWithPrefix("registry."),
		"tenants":    snap.CountersWithPrefix("tenant."),
	}
	if c := s.engine.SearchCache(); c != nil {
		cs := c.Stats()
		resp["cache"] = map[string]any{
			"hits":      cs.Hits,
			"misses":    cs.Misses,
			"evictions": cs.Evictions,
			"entries":   cs.Entries,
			"capacity":  cs.Capacity,
			"hit_rate":  cs.HitRate(),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
