package httpapi

// handoff.go makes Server a replica of a horizontally scaled serving tier:
// session state is checkpointed into a session.Store after every mutating
// request, and a request for a session this process has never seen restores
// it from its last snapshot — which is how a session survives its original
// replica dying and the router's hash ring remapping it here.
//
// Semantics, in the order they matter:
//
//   - Checkpoints happen under the per-session lock, so snapshots are always
//     a request boundary — never a torn mid-mutation state — and the store's
//     last-writer-wins matches the session's own serialization.
//   - A restore reloads the snapshot's raw fragments into a fresh engine
//     fragment session and corrects nothing (see internal/session); the
//     pipeline's pinned fragment ≡ one-shot identity makes the resumed
//     stream bit-identical to one that never moved. Resumed responses carry
//     "resumed": true and an X-SpeakQL-Resume-Ns header so the router can
//     observe failover cost.
//   - TTL eviction is fleet-wide death: the sweeper deletes the snapshot
//     along with the local entry. A restore that races it double-checks the
//     store *after* registering the restored entry; if the snapshot is gone
//     the restore unwinds and the request gets the typed lost verdict. The
//     session is therefore never half-restored: the caller sees a fully
//     live session or a typed 404, nothing in between.
//   - When no snapshot exists (or the store is disabled) a session miss on a
//     store-configured replica answers 404 with "code": "stream.lost" — the
//     router's signal that the dictation state is unrecoverable and the
//     client must restart it. Counters: session.checkpoints,
//     session.restores, stream.resumed, stream.lost.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"speakql/internal/core"
	"speakql/internal/session"
	"speakql/internal/stream"
)

// SetNodeID namespaces this replica's session ids (ids become
// "<node>-s<N>"), so replicas behind one router never mint colliding ids
// and a restarted replica (fresh counter) cannot collide with ids its
// predecessor handed out. Call before Handler.
func (s *Server) SetNodeID(node string) { s.nodeID = node }

// SetSessionStore connects this replica to the fleet's snapshot store:
// sessions checkpoint into it after every mutating request and unknown
// session ids are restored from it before being 404ed. Call before Handler.
func (s *Server) SetSessionStore(st session.Store) { s.store = st }

// checkpointLocked persists the session's current snapshot under the
// caller's entry.mu, so every stored snapshot is a clean request boundary.
// Checkpoint failures are counted, not surfaced: the request itself
// succeeded, and the worst case is resuming from the previous snapshot.
func (s *Server) checkpointLocked(id string, entry *sessionEntry) {
	if s.store == nil {
		return
	}
	if err := s.store.Save(entry.sess.Snapshot(id, entry.tenant)); err != nil {
		s.reg.Add("session.checkpoint_errors", 1)
		return
	}
	s.reg.Add("session.checkpoints", 1)
}

// lookupSession finds the session locally or, on a store-configured
// replica, restores it from its last snapshot. resumedNs > 0 reports a
// restore this request performed (the failover cost the router observes);
// ok=false means the session is gone fleet-wide — answer with
// writeSessionMiss.
func (s *Server) lookupSession(id string) (entry *sessionEntry, resumedNs int64, ok bool) {
	if e, found := s.session(id); found {
		return e, 0, true
	}
	if s.store == nil || id == "" {
		return nil, 0, false
	}
	t0 := time.Now()
	snap, found, err := s.store.Load(id)
	if err != nil || !found {
		return nil, 0, false
	}
	eng, ok := s.engineFor(snap.Tenant)
	if !ok {
		// The owning tenant was evicted or deleted while the session was
		// in flight between replicas; the session dies with it.
		return nil, 0, false
	}
	e := &sessionEntry{events: stream.NewBroadcaster(), tenant: snap.Tenant}
	e.sess = session.Restore(eng, stream.Config{Events: e.events, Session: id}, snap)
	e.touch()
	if v, loaded := s.sessions.LoadOrStore(id, e); loaded {
		// A concurrent request restored (or re-created) the session first;
		// converge on that entry and discard this restore.
		e.events.Close()
		winner := v.(*sessionEntry)
		winner.touch()
		return winner, 0, true
	}
	// Double-check against a racing TTL eviction: eviction removes the local
	// entry and then deletes the snapshot fleet-wide. Re-loading *after*
	// registering means a Delete that wins this race is always observed here
	// — the restore unwinds and the caller gets the typed lost verdict
	// instead of resurrecting a session the fleet already declared dead.
	if _, still, _ := s.store.Load(id); !still {
		s.sessions.CompareAndDelete(id, e)
		e.events.Close()
		return nil, 0, false
	}
	s.reg.Add("session.restores", 1)
	if snap.Stream != nil {
		s.reg.Add("stream.resumed", 1)
	}
	if snap.Tenant != "" {
		s.reg.Add("tenant."+snap.Tenant+".requests", 1)
	}
	return e, time.Since(t0).Nanoseconds(), true
}

// engineFor resolves the engine sessions of the given tenant correct
// against (the shared engine for the empty tenant). ok=false means the
// tenant no longer exists — any session labeled with it is dead.
func (s *Server) engineFor(tenant string) (*core.Engine, bool) {
	if tenant == "" {
		return s.engine, true
	}
	t, err := s.tenants.Acquire(tenant)
	if err != nil {
		return nil, false
	}
	return t.Engine, true
}

// withSession runs fn on the session's entry under entry.mu, finding the
// entry as lookupSession does; every mutating session handler goes through
// it. ok=false means the session is gone fleet-wide (fn did not run):
// answer with writeSessionMiss. resumedNs > 0 reports a restore or resync
// this request performed. The lock is released by a defer, so a panicking
// correction (fault injection, poisoned transcript) unlocks on its way to
// the recovery middleware instead of wedging the session.
func (s *Server) withSession(id string, fn func(entry *sessionEntry)) (resumedNs int64, ok bool) {
	entry, resumedNs, ok := s.lookupSession(id)
	if !ok {
		return 0, false
	}
	entry.mu.Lock()
	defer entry.mu.Unlock()
	if resumedNs == 0 {
		// An entry restored by this request is already the store's latest.
		resumedNs = s.resyncLocked(id, entry)
	}
	fn(entry)
	return resumedNs, true
}

// resyncLocked refreshes a locally live session from the fleet's snapshot
// when the store holds a newer state of it (Snapshot.NewerThan). This
// closes the stale-copy hole: a replica that once owned a session keeps its
// in-memory entry even after the ring routes the session elsewhere, and if
// routing later falls back here (the newer owner died), serving the stale
// copy would silently drop the fragments, dictations, edits or finalize
// applied in between. Callers hold entry.mu. Returns the rebuild
// nanoseconds when a resync happened, 0 otherwise.
func (s *Server) resyncLocked(id string, entry *sessionEntry) int64 {
	if s.store == nil {
		return 0
	}
	snap, found, err := s.store.Load(id)
	if err != nil || !found || !snap.NewerThan(entry.sess) {
		return 0
	}
	t0 := time.Now()
	eng, ok := s.engineFor(snap.Tenant)
	if !ok {
		return 0
	}
	entry.sess = session.Restore(eng, stream.Config{Events: entry.events, Session: id}, snap)
	s.reg.Add("session.resyncs", 1)
	if snap.Stream != nil {
		s.reg.Add("stream.resumed", 1)
	}
	return time.Since(t0).Nanoseconds()
}

// resumeHeader is the response header carrying the nanoseconds a restored
// request spent rebuilding the session (the router folds it into its
// failover-latency histogram).
const resumeHeader = "X-SpeakQL-Resume-Ns"

// markResumed stamps a response produced by a request that restored its
// session: the resumed field tells the client its session moved replicas,
// and the header carries the rebuild cost for the router.
func markResumed(w http.ResponseWriter, resp map[string]any, resumedNs int64) {
	if resumedNs <= 0 {
		return
	}
	w.Header().Set(resumeHeader, strconv.FormatInt(resumedNs, 10))
	if resp != nil {
		resp["resumed"] = true
	}
}

// writeSessionMiss answers a fleet-wide session miss. On a store-configured
// replica the 404 is typed "stream.lost" — the router's terminal verdict
// that the dictation state is unrecoverable (replica died between
// checkpoints, or the TTL evicted it) and the client must restart.
func (s *Server) writeSessionMiss(w http.ResponseWriter, id string) {
	if s.store != nil {
		s.reg.Add("stream.lost", 1)
		writeJSON(w, http.StatusNotFound, map[string]any{
			"error": fmt.Sprintf("session %q lost: no live entry and no snapshot survives", id),
			"code":  "stream.lost",
		})
		return
	}
	writeErr(w, http.StatusNotFound, fmt.Errorf("unknown session %q", id))
}
