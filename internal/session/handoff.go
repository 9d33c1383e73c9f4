package session

// handoff.go connects live sessions to the snapshot Store: Snapshot freezes
// a session into its portable form after each mutating request (the HTTP
// layer checkpoints it into the Store), and Restore rebuilds a live session
// from a snapshot on the replica that takes the session over after its
// original owner dies. Restoring a mid-stream dictation replays the
// recorded fragments through a fresh engine fragment session; the
// fragment pipeline's bit-identity to one-shot correction is what makes the
// resumed stream indistinguishable from one that never moved.

import (
	"context"

	"speakql/internal/core"
	"speakql/internal/stream"
)

// Snapshot freezes the session's portable state under the caller's
// serialization (the HTTP layer holds the per-session lock): display
// tokens, the effort log, and the open dictation's phase and fragments.
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
		phase, fragments, seq := s.dict.SnapshotState()
		snap.Stream = &StreamSnapshot{Phase: string(phase), Fragments: fragments, Seq: seq}
	}
	return snap
}

// Restore rebuilds a live session from a snapshot on this replica: display
// and effort log verbatim, and — for a snapshot taken mid-stream — the
// dictation replayed to exactly the state the original replica held, so the
// next fragment continues the stream as if nothing died. cfg carries the
// receiving replica's event broadcaster and fragment budget (subscribers
// re-attach on the new replica; events are not replayed).
//
// The returned FragmentOutput is the mid-stream restore correction (zero
// when the snapshot had no open stream); its Err reports a degraded or
// faulted restore pass — the session is still fully wired, and Finalize
// retries at full fidelity, so callers may surface the error without
// discarding the session.
func Restore(ctx context.Context, engine *core.Engine, cfg stream.Config, snap *Snapshot) (*Session, core.FragmentOutput) {
	s := New(engine)
	s.SetStreamConfig(cfg)
	s.tokens = append([]string(nil), snap.Tokens...)
	s.events = append([]Event(nil), snap.Events...)
	var out core.FragmentOutput
	if snap.Stream != nil {
		var d *stream.Dictation
		d, out = stream.RestoreDictation(ctx, engine, cfg, stream.State(snap.Stream.Phase), snap.Stream.Fragments)
		s.dict = d
	}
	return s, out
}
