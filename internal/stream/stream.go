// Package stream is the clause-streaming dictation layer: it wraps the
// engine's FragmentSession in an explicit state machine (idle → streaming →
// finalized / closed) with per-fragment deadline budgets, fault-injection
// hooks, and a bounded, non-blocking event broadcaster that fans each
// fragment's corrected snapshot out to SSE subscribers. The HTTP layer
// (internal/httpapi) exposes it as POST /api/stream/dictate,
// POST /api/stream/finalize and the SSE feed GET /api/stream/events;
// internal/session owns one Dictation per voice session.
//
// The state machine:
//
//	           Dictate                    Finalize
//	 [idle] ──────────────► [streaming] ───────────► [finalized]
//	   │        ▲   │ Dictate                │
//	   │ Close  └───┘                        │ Close
//	   ▼                                     ▼
//	[closed] ◄───────────────────────────────┘
//
// Dictate and Finalize reject closed and finalized dictations with
// ErrClosed / ErrFinalized rather than silently re-opening them; Close is
// idempotent and never blocks on an in-flight correction.
package stream

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"speakql/internal/core"
	"speakql/internal/faultinject"
	"speakql/internal/obs"
)

// State labels a Dictation's position in the streaming lifecycle.
type State string

// Dictation lifecycle states.
const (
	// StateIdle: created, no fragment dictated yet.
	StateIdle State = "idle"
	// StateStreaming: at least one fragment corrected, more may follow.
	StateStreaming State = "streaming"
	// StateFinalized: Finalize ran; the transcript is closed to new
	// fragments but snapshots remain readable.
	StateFinalized State = "finalized"
	// StateClosed: Close ran (session evicted or client gone); every
	// subsequent call fails with ErrClosed.
	StateClosed State = "closed"
)

// Errors returned by Dictation state checks.
var (
	// ErrFinalized rejects fragments dictated after Finalize.
	ErrFinalized = errors.New("stream: dictation already finalized")
	// ErrClosed rejects any use of a closed dictation.
	ErrClosed = errors.New("stream: dictation closed")
)

// Config configures a Dictation.
type Config struct {
	// FragmentBudget is the per-fragment correction deadline. Each Dictate
	// call runs under its own deadline of this length, so one slow fragment
	// degrades (per the engine's ladder) instead of stalling the stream.
	// 0 means no per-fragment deadline. Finalize always runs without a
	// deadline: it is the full-fidelity retry of whatever the budget
	// degraded mid-stream.
	FragmentBudget time.Duration
	// Events, when non-nil, receives one event per fragment, finalize, and
	// close. Publishing never blocks: slow subscribers drop events
	// (stream.events_dropped) rather than wedging the dictation.
	Events *Broadcaster
	// Session labels this dictation's events so one broadcaster can serve
	// multiplexed feeds.
	Session string
}

// Dictation corrects one voice query dictated clause by clause. It is safe
// for concurrent use: Dictate/Finalize serialize on an internal mutex
// (fragments are inherently ordered), while Close and State never wait for
// an in-flight correction.
type Dictation struct {
	cfg    Config
	closed atomic.Bool

	mu        sync.Mutex
	fs        *core.FragmentSession
	finalized bool
	started   bool
	last      core.FragmentOutput
}

// NewDictation starts an idle dictation backed by a fresh engine fragment
// session.
func NewDictation(e *core.Engine, cfg Config) *Dictation {
	return &Dictation{cfg: cfg, fs: e.NewFragmentSession()}
}

// State reports the dictation's current lifecycle state.
func (d *Dictation) State() State {
	if d.closed.Load() {
		return StateClosed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.finalized:
		return StateFinalized
	case d.started:
		return StateStreaming
	default:
		return StateIdle
	}
}

// Snapshot returns the most recent corrected output (the zero value while
// idle). The snapshot stays readable after Finalize and Close.
func (d *Dictation) Snapshot() core.FragmentOutput {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}

// Transcript returns the raw transcript accumulated so far.
func (d *Dictation) Transcript() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.fs.Transcript()
}

// Dictate corrects one more fragment of the dictation, running the engine
// under the per-fragment budget. The returned output is the correction of
// the whole accumulated transcript (see core.FragmentSession). Fails with
// ErrFinalized / ErrClosed on a completed dictation and with the injected
// error when the stream fault stage fires.
func (d *Dictation) Dictate(ctx context.Context, fragment string) (core.FragmentOutput, error) {
	if d.closed.Load() {
		return core.FragmentOutput{}, ErrClosed
	}
	if err := faultinject.Fire(faultinject.StageStream); err != nil {
		obs.Add("stream.injected_errors", 1)
		return core.FragmentOutput{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.finalized {
		return core.FragmentOutput{}, ErrFinalized
	}
	if d.cfg.FragmentBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.cfg.FragmentBudget)
		defer cancel()
	}
	out := d.fs.CorrectFragment(ctx, fragment)
	d.started = true
	d.last = out
	obs.Add("stream.fragments", 1)
	d.publish("fragment", out)
	return out, nil
}

// Finalize closes the transcript and re-corrects it at full fidelity (no
// per-fragment deadline), returning the definitive output — bit-identical
// to a one-shot Correct of the accumulated transcript. Idempotent failure
// semantics: a second Finalize fails with ErrFinalized.
func (d *Dictation) Finalize(ctx context.Context) (core.FragmentOutput, error) {
	if d.closed.Load() {
		return core.FragmentOutput{}, ErrClosed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.finalized {
		return core.FragmentOutput{}, ErrFinalized
	}
	out := d.fs.Finalize(ctx)
	d.finalized = true
	d.last = out
	obs.Add("stream.finalized", 1)
	d.publish("finalized", out)
	return out, nil
}

// Fragments returns a copy of the raw fragments dictated so far — the
// replayable half of a dictation snapshot.
func (d *Dictation) Fragments() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.fs.Fragments()...)
}

// SnapshotState captures the dictation's portable state in one consistent
// read: lifecycle phase, the fragment sequence, and the sequence counter.
// Together with the engine (shared, immutable) this is everything another
// replica needs to resume the stream (see RestoreDictation).
func (d *Dictation) SnapshotState() (phase State, fragments []string, seq int) {
	if d.closed.Load() {
		// Read fragments under the lock anyway; a closed dictation's state is
		// frozen but still snapshot-consistent.
		d.mu.Lock()
		defer d.mu.Unlock()
		return StateClosed, append([]string(nil), d.fs.Fragments()...), d.last.Seq
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	frags := append([]string(nil), d.fs.Fragments()...)
	switch {
	case d.finalized:
		return StateFinalized, frags, d.last.Seq
	case d.started:
		return StateStreaming, frags, d.last.Seq
	default:
		return StateIdle, frags, 0
	}
}

// RestoreDictation rehydrates a dictation from a snapshot taken on another
// replica: the fragments are replayed through a fresh engine fragment
// session and — for a mid-stream snapshot — corrected once, which (by the
// fragment ≡ one-shot bit-identity the fragment pipeline pins) leaves
// exactly the state the original sequence of Dictate calls built. No events
// are published during restore: the handed-off replica's subscribers start
// from the next live fragment. A finalized snapshot restores with the
// finalized flag set and no re-correction (its definitive output already
// left with the snapshot's display tokens); a later Dictate/Finalize fails
// with ErrFinalized exactly as it would have on the original replica.
// The returned FragmentOutput is the zero value unless a mid-stream
// correction ran; its Err reports a failed restore correction (injected
// faults, expired ctx) — the dictation is still usable, and Finalize retries
// at full fidelity.
func RestoreDictation(ctx context.Context, e *core.Engine, cfg Config, phase State, fragments []string) (*Dictation, core.FragmentOutput) {
	d := NewDictation(e, cfg)
	var out core.FragmentOutput
	switch phase {
	case StateStreaming:
		d.mu.Lock()
		out = d.fs.RestoreFragments(ctx, fragments)
		d.started = true
		d.last = out
		d.mu.Unlock()
		obs.Add("stream.restored", 1)
	case StateFinalized:
		d.mu.Lock()
		d.fs.AppendRawFragments(fragments)
		d.started = len(fragments) > 0
		d.finalized = true
		d.mu.Unlock()
		obs.Add("stream.restored", 1)
	case StateClosed:
		d.closed.Store(true)
	}
	return d, out
}

// Close marks the dictation dead. It is idempotent, publishes a terminal
// "closed" event, and deliberately does not take the dictation mutex: a
// sweeper evicting an idle session must never wait behind an in-flight
// correction.
func (d *Dictation) Close() {
	if d.closed.Swap(true) {
		return
	}
	obs.Add("stream.closed", 1)
	if d.cfg.Events != nil {
		d.cfg.Events.Publish(Event{Session: d.cfg.Session, Kind: "closed"})
	}
}

// publish fans one correction out to the broadcaster. Called with d.mu
// held; the broadcaster has its own lock and never blocks.
func (d *Dictation) publish(kind string, out core.FragmentOutput) {
	if d.cfg.Events == nil {
		return
	}
	best := out.Best()
	d.cfg.Events.Publish(Event{
		Session:         d.cfg.Session,
		Kind:            kind,
		Seq:             out.Seq,
		Transcript:      out.RawTranscript,
		SQL:             best.SQL,
		Degradation:     out.Degradation,
		Pending:         out.Pending,
		StablePrefixLen: out.StablePrefixLen,
	})
}
