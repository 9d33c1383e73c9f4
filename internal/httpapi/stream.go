package httpapi

// stream.go exposes the clause-streaming dictation pipeline over HTTP:
//
//	POST /api/stream/dictate  — correct one more fragment (auto-creates a
//	                            session when id is empty); admission-gated
//	                            and deadline-bounded like the other
//	                            correction endpoints.
//	POST /api/stream/finalize — close the dictation with a full-fidelity
//	                            re-pass; 409 when there is nothing to close.
//	GET  /api/stream/events   — Server-Sent Events feed of per-fragment
//	                            snapshots. Deliberately NOT admission-gated:
//	                            subscribers are cheap long-lived readers,
//	                            and shedding them under load would kill the
//	                            display updates exactly when degraded
//	                            responses make them most useful.
//
// Every session owns one event broadcaster, created with the session so the
// TTL sweeper and Server.Close can terminate its subscribers without
// touching the session lock (an in-flight correction must never wedge
// eviction or shutdown).

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"speakql/internal/core"
	"speakql/internal/session"
)

type streamDictateReq struct {
	ID       string `json:"id"`
	Fragment string `json:"fragment"`
	// Seq, when positive, is the sequence number the client expects this
	// fragment to receive — its idempotency key. If the session's open
	// dictation already reached Seq, the fragment was applied by an earlier
	// attempt whose response was lost (a replica died mid-reply, a proxy
	// gave up): the server acknowledges with the current display instead of
	// applying the fragment twice. This is what makes client-side retries
	// through the router exactly-once. A finalized dictation is not open: a
	// fragment after it starts the next dictation at Seq 1.
	Seq int `json:"seq,omitempty"`
}

type streamFinalizeReq struct {
	ID string `json:"id"`
}

// streamState shapes one fragment correction for the JSON response. The
// validation keys appear only when the stage actually touched this
// correction, so a -validate=off server's stream responses are unchanged.
func streamState(id string, out core.FragmentOutput, deadlineHit bool) map[string]any {
	best := out.Best()
	resp := map[string]any{
		"id":                id,
		"seq":               out.Seq,
		"transcript":        out.RawTranscript,
		"sql":               best.SQL,
		"tokens":            best.Tokens,
		"pending":           out.Pending,
		"stable_prefix_len": out.StablePrefixLen,
		"degradation":       out.Degradation,
		"deadline_hit":      deadlineHit,
	}
	if out.Validation != "" {
		resp["validation"] = out.Validation
	}
	if best.Verdict != "" {
		resp["verdict"] = best.Verdict
		resp["demoted"] = best.Demoted
	}
	return resp
}

func (s *Server) handleStreamDictate(w http.ResponseWriter, r *http.Request) {
	span := s.reg.StartSpan("http.stream_dictate")
	defer span.End()
	var req streamDictateReq
	if err := decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.ID == "" {
		t, terr := s.tenantFor(r)
		if terr != nil {
			writeTenantErr(w, terr)
			return
		}
		id, err := s.newSession(t)
		if err != nil {
			writeTenantErr(w, err)
			return
		}
		req.ID = id
	}
	ctx := r.Context()
	var out core.FragmentOutput
	var err error
	var duplicate map[string]any
	resumedNs, ok := s.withSession(req.ID, func(entry *sessionEntry) {
		if cur, finalized := entry.sess.StreamPosition(); req.Seq > 0 && !finalized && cur >= req.Seq {
			// The fragment already landed via an attempt whose response was
			// lost — acknowledge, don't re-apply.
			s.reg.Add("stream.duplicate_acks", 1)
			duplicate = map[string]any{
				"id": req.ID, "seq": cur, "duplicate": true,
				"sql": entry.sess.SQL(), "tokens": entry.sess.Tokens(),
			}
			return
		}
		out, err = entry.sess.StreamFragment(ctx, req.Fragment)
		if err == nil {
			s.checkpointLocked(req.ID, entry)
		}
	})
	if !ok {
		s.writeSessionMiss(w, req.ID)
		return
	}
	if duplicate != nil {
		markResumed(w, duplicate, resumedNs)
		writeJSON(w, http.StatusOK, duplicate)
		return
	}
	switch {
	case errors.Is(err, session.ErrFinalized):
		writeErr(w, http.StatusConflict, err)
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error":       err.Error(),
			"degradation": core.DegradationShed,
		})
		return
	case out.Err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error":       out.Err.Error(),
			"degradation": out.Degradation,
		})
		return
	}
	resp := streamState(req.ID, out, ctx.Err() != nil)
	markResumed(w, resp, resumedNs)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStreamFinalize(w http.ResponseWriter, r *http.Request) {
	span := s.reg.StartSpan("http.stream_finalize")
	defer span.End()
	var req streamFinalizeReq
	if err := decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	var out core.FragmentOutput
	var err error
	resumedNs, ok := s.withSession(req.ID, func(entry *sessionEntry) {
		out, err = entry.sess.FinalizeStream(ctx)
		if err == nil {
			s.checkpointLocked(req.ID, entry)
		}
	})
	if !ok {
		s.writeSessionMiss(w, req.ID)
		return
	}
	switch {
	case errors.Is(err, session.ErrFinalized):
		writeErr(w, http.StatusConflict, err)
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error":       err.Error(),
			"degradation": core.DegradationShed,
		})
		return
	case out.Err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]any{
			"error":       out.Err.Error(),
			"degradation": out.Degradation,
		})
		return
	}
	resp := streamState(req.ID, out, ctx.Err() != nil)
	markResumed(w, resp, resumedNs)
	writeJSON(w, http.StatusOK, resp)
}

// handleStreamEvents serves the SSE feed for one session's dictations. The
// handler holds no locks while blocked: it waits only on the subscriber
// channel (closed by eviction, Server.Close, or broadcaster teardown) and
// the client's context, so a slow or gone client can never wedge a session.
func (s *Server) handleStreamEvents(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	// Subscribers restore too: after a failover the display reconnects its
	// feed to whichever replica now owns the session.
	entry, _, ok := s.lookupSession(id)
	if !ok {
		s.writeSessionMiss(w, id)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("streaming unsupported by connection"))
		return
	}
	sub := entry.events.Subscribe()
	defer sub.Cancel()
	s.reg.Add("stream.sse_connections", 1)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": connected\n\n")
	flusher.Flush()
	for {
		select {
		case ev, open := <-sub.Events():
			if !open {
				// Broadcaster closed: session evicted or server shutting
				// down. End the feed cleanly.
				return
			}
			payload, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "data: %s\n\n", payload)
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
