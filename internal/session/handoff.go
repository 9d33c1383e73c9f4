package session

// handoff.go connects live sessions to the snapshot Store: Snapshot freezes
// a session into its portable form after each mutating request (the HTTP
// layer checkpoints it into the Store), and Restore rebuilds a live session
// from a snapshot on the replica that takes the session over after its
// original owner dies. Restoring a dictation reloads its recorded fragments
// and corrects nothing: every fragment's correction is the one-shot
// correction of the accumulated transcript, so the next fragment or
// finalize on the new replica answers exactly as on one that never moved.

import (
	"speakql/internal/core"
	"speakql/internal/stream"
)

// Snapshot freezes the session's portable state under the caller's
// serialization (the HTTP layer holds the per-session lock): display
// tokens, the effort log, and the latest dictation's phase and fragments.
// id and tenant label the snapshot for the Store and for tenant-scoped
// restore on the receiving replica.
func (s *Session) Snapshot(id, tenant string) *Snapshot {
	snap := &Snapshot{
		Version: SnapshotVersion,
		ID:      id,
		Tenant:  tenant,
		Tokens:  append([]string(nil), s.tokens...),
		Events:  append([]Event(nil), s.events...),
	}
	if s.dict != nil {
		fragments := append([]string(nil), s.dict.Fragments()...)
		snap.Stream = &StreamSnapshot{Phase: s.streamPhase(), Fragments: fragments, Seq: len(fragments)}
	}
	return snap
}

// NewerThan reports whether snap holds a later state of the session than
// the live copy s: its effort log is longer (every mutating request except
// a finalize appends to it), or equally long with the dictation finalized
// where s's is still open.
func (snap *Snapshot) NewerThan(s *Session) bool {
	if len(snap.Events) != len(s.events) {
		return len(snap.Events) > len(s.events)
	}
	return snap.Stream != nil && snap.Stream.Phase == phaseFinalized && !s.finalized
}

// Restore rebuilds a live session from a snapshot on this replica: display,
// effort log and dictation fragments verbatim, with no correction run. cfg
// carries the receiving replica's event broadcaster (subscribers re-attach
// on the new replica; events are not replayed).
func Restore(engine *core.Engine, cfg stream.Config, snap *Snapshot) *Session {
	s := New(engine)
	s.SetStreamConfig(cfg)
	s.tokens = append([]string(nil), snap.Tokens...)
	s.events = append([]Event(nil), snap.Events...)
	if st := snap.Stream; st != nil {
		s.dict = engine.NewFragmentSession()
		s.dict.AppendRawFragments(st.Fragments)
		s.finalized = st.Phase == phaseFinalized
	}
	return s
}
