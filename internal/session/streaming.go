package session

// streaming.go is the clause-streaming dictation: each streamed fragment is
// one record-button press that grows the display in place, and the effort
// log counts it exactly like the other dictation modes. A dictation is idle
// (opened by a fragment the stream fault rejected), streaming, or finalized;
// the next fragment after a finalize opens a new one. Every corrected
// fragment and every finalize is published on the session's stream
// broadcaster. The HTTP layer maps POST /api/stream/dictate and
// /api/stream/finalize onto these methods under its per-session lock.

import (
	"context"
	"errors"

	"speakql/internal/core"
	"speakql/internal/faultinject"
	"speakql/internal/obs"
	"speakql/internal/stream"
)

// EventDictateFragment logs one streamed clause fragment (the incremental
// record button of the clause-streaming mode).
const EventDictateFragment EventKind = "dictate-fragment"

// Dictation phases, as StreamSnapshot.Phase records them.
const (
	phaseIdle      = "idle"
	phaseStreaming = "streaming"
	phaseFinalized = "finalized"
)

// ErrFinalized rejects a finalize when no dictation is open. Its text is
// the error of the HTTP API's 409 answer.
var ErrFinalized = errors.New("stream: dictation already finalized")

// SetStreamConfig names the broadcaster the session's dictation events go
// to and the session label they carry.
func (s *Session) SetStreamConfig(cfg stream.Config) { s.streamCfg = cfg }

// StreamPosition reports how many fragments the latest dictation holds and
// whether it is finalized; (0, false) before the first fragment.
func (s *Session) StreamPosition() (fragments int, finalized bool) {
	if s.dict == nil {
		return 0, false
	}
	return len(s.dict.Fragments()), s.finalized
}

// StreamFragment feeds one dictated fragment into the open dictation,
// opening a new one if none is open. The display follows the best candidate
// of the accumulated correction; the attempt is logged at the record-button
// cost either way. Fails with the injected error when the stream fault
// stage fires.
func (s *Session) StreamFragment(ctx context.Context, fragment string) (core.FragmentOutput, error) {
	if s.dict == nil || s.finalized {
		s.dict, s.finalized = s.engine.NewFragmentSession(), false
	}
	s.events = append(s.events, Event{Kind: EventDictateFragment, Detail: fragment, Touches: CostRecordButton})
	if err := faultinject.Fire(faultinject.StageStream); err != nil {
		obs.Add("stream.injected_errors", 1)
		return core.FragmentOutput{}, err
	}
	out := s.dict.CorrectFragment(ctx, fragment)
	obs.Add("stream.fragments", 1)
	s.publish("fragment", out)
	s.tokens = out.Best().Tokens
	return out, nil
}

// FinalizeStream closes the open dictation with a full-fidelity re-pass —
// bit-identical to a one-shot correction of the accumulated transcript —
// and leaves its output in the display. Finalizing is free (the stream
// simply ends) and fails with ErrFinalized when no dictation is open.
func (s *Session) FinalizeStream(ctx context.Context) (core.FragmentOutput, error) {
	if s.dict == nil || s.finalized {
		return core.FragmentOutput{}, ErrFinalized
	}
	out := s.dict.Finalize(ctx)
	s.finalized = true
	obs.Add("stream.finalized", 1)
	s.publish("finalized", out)
	s.tokens = out.Best().Tokens
	return out, nil
}

// streamPhase names the latest dictation's phase; s.dict must be non-nil.
func (s *Session) streamPhase() string {
	switch {
	case s.finalized:
		return phaseFinalized
	case len(s.dict.Fragments()) > 0:
		return phaseStreaming
	default:
		return phaseIdle
	}
}

// publish fans one correction out to the session's broadcaster, which never
// blocks.
func (s *Session) publish(kind string, out core.FragmentOutput) {
	if s.streamCfg.Events == nil {
		return
	}
	best := out.Best()
	s.streamCfg.Events.Publish(stream.Event{
		Session:         s.streamCfg.Session,
		Kind:            kind,
		Seq:             out.Seq,
		Transcript:      out.RawTranscript,
		SQL:             best.SQL,
		Degradation:     out.Degradation,
		Pending:         out.Pending,
		StablePrefixLen: out.StablePrefixLen,
	})
}
