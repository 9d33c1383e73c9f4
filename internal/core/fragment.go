package core

// Fragment (clause-streaming) correction: the interactive interface the
// paper describes lets users dictate one clause at a time and watch the
// corrected query grow. FragmentSession is the engine-level half of that
// pipeline — it accumulates fragments, runs the one-shot structure
// determination over the accumulated transcript per fragment (through the
// search LRU, which finalize and repeated clause prefixes hit) and replays
// unchanged literal windows from a per-session memo, while honoring the
// same degradation ladder and deadline budget as one-shot correction.
// internal/session adds the dictation lifecycle and event fan-out on top.

import (
	"context"
	"strings"
	"time"

	"speakql/internal/literal"
	"speakql/internal/obs"
	"speakql/internal/sqltoken"
)

// FragmentOutput is the engine's response to one dictated fragment: a full
// Output for the whole accumulated transcript, plus streaming position
// metadata for the interactive display.
type FragmentOutput struct {
	Output
	// Seq numbers the fragments of this session, starting at 1: it is the
	// number of fragments dictated so far. Finalize reports the last
	// fragment's Seq.
	Seq int
	// RawTranscript is the accumulated raw dictation (before spoken-form
	// substitution; Output.Transcript carries the processed tokens).
	RawTranscript string
	// Pending lists the placeholders whose literal windows still touch the
	// transcript tail — their bindings may change as more speech arrives.
	// In structure-only degradations every placeholder is pending.
	Pending []string
	// StablePrefixLen is the number of leading tokens of Best().Tokens
	// before the first pending placeholder: the corrected prefix the display
	// can render as settled.
	StablePrefixLen int
}

// FragmentSession corrects a transcript dictated fragment by fragment.
// Every fragment runs the one-shot structure determination over the
// accumulated transcript, so after the last fragment (or Finalize) the
// output is bit-identical to a one-shot Correct of the full accumulated
// transcript — candidates, bindings, and degradation ladder included
// (TestCorrectFragmentMatchesOneShot). A FragmentSession is not safe for
// concurrent use; the Engine it came from is shared as usual.
type FragmentSession struct {
	e         *Engine
	memo      *literal.VoteMemo
	fragments []string
}

// NewFragmentSession starts an empty streaming correction session. Like
// Correct, it keeps a single structure hypothesis per fragment.
func (e *Engine) NewFragmentSession() *FragmentSession {
	return &FragmentSession{e: e, memo: literal.NewVoteMemo()}
}

// Fragments returns the raw fragments dictated so far.
func (fs *FragmentSession) Fragments() []string { return fs.fragments }

// transcript returns the accumulated raw transcript: the non-blank
// fragments, trimmed and joined by single spaces.
func (fs *FragmentSession) transcript() string {
	parts := make([]string, 0, len(fs.fragments))
	for _, f := range fs.fragments {
		if f = strings.TrimSpace(f); f != "" {
			parts = append(parts, f)
		}
	}
	return strings.Join(parts, " ")
}

// CorrectFragment appends one dictated fragment and corrects the whole
// accumulated transcript, reusing cached searches and the previous
// fragments' voting work. ctx carries the per-fragment deadline; the
// degradation ladder applies to each fragment exactly as it does to a
// one-shot correction.
func (fs *FragmentSession) CorrectFragment(ctx context.Context, fragment string) FragmentOutput {
	span := obs.StartSpan("core.correct_fragment")
	defer span.End()
	fs.fragments = append(fs.fragments, fragment)
	return fs.correct(ctx)
}

// AppendRawFragments records fragments without correcting anything: a
// session restored from a snapshot reloads its dictation this way. Each
// fragment's correction is the one-shot correction of the accumulated
// transcript, so the next CorrectFragment or Finalize answers exactly as it
// would have on a session that dictated these fragments itself.
func (fs *FragmentSession) AppendRawFragments(fragments []string) {
	fs.fragments = append(fs.fragments, fragments...)
}

// Finalize re-corrects the accumulated transcript without appending
// anything. Use it to close a dictation: a fragment the deadline degraded
// mid-stream is retried here at full fidelity, and — absent new faults or an
// expired ctx — the result is bit-identical to one-shot Correct of the full
// transcript.
func (fs *FragmentSession) Finalize(ctx context.Context) FragmentOutput {
	span := obs.StartSpan("core.finalize_fragments")
	defer span.End()
	return fs.correct(ctx)
}

// correct runs the pipeline over the accumulated transcript, with the
// session's vote memo, and adds the streaming position metadata.
func (fs *FragmentSession) correct(ctx context.Context) FragmentOutput {
	t0 := time.Now()
	transcript := fs.transcript()
	structs, serr := fs.e.structure.DetermineTopKErr(ctx, transcript, 1)
	out := fs.e.finishPipeline(ctx, t0, structs, serr, fs.memo)
	fo := FragmentOutput{
		Output:        out,
		Seq:           len(fs.fragments),
		RawTranscript: transcript,
	}
	fo.Pending = pendingPlaceholders(out)
	fo.StablePrefixLen = stablePrefixLen(out.Best(), fo.Pending)
	return fo
}

// pendingPlaceholders lists the best candidate's placeholders whose literal
// windows reach the end of the transcript — the ones more speech could still
// change. Unbound candidates (structure-only degradations) leave every
// placeholder pending.
func pendingPlaceholders(out Output) []string {
	best := out.Best()
	if len(best.Structure) == 0 {
		return nil
	}
	if len(best.Bindings) == 0 {
		var p []string
		for _, tok := range best.Structure {
			if sqltoken.Classify(tok) == sqltoken.Literal {
				p = append(p, tok)
			}
		}
		return p
	}
	n := len(out.Transcript)
	var p []string
	for _, b := range best.Bindings {
		if b.End >= n {
			p = append(p, b.Placeholder)
		}
	}
	return p
}

// stablePrefixLen counts the leading tokens of the best candidate up to the
// first pending placeholder.
func stablePrefixLen(best Candidate, pending []string) int {
	if len(pending) == 0 {
		return len(best.Tokens)
	}
	pend := make(map[string]bool, len(pending))
	for _, p := range pending {
		pend[p] = true
	}
	for i, tok := range best.Structure {
		if pend[tok] {
			return i
		}
	}
	return len(best.Tokens)
}
