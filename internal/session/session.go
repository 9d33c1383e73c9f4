// Package session models SpeakQL's multimodal interface (Section 5,
// Figure 5): a query display that the user fills by full-query dictation or
// clause-level dictation (re-running the correction engine), and repairs
// with the SQL Keyboard's touch operations (insert / delete / replace
// token, value autocomplete, date picker). Every interaction is logged with
// its effort cost, which is what the user-study simulator (internal/uisim)
// and Figure 7/12 consume.
package session

import (
	"context"
	"strings"

	"speakql/internal/core"
	"speakql/internal/sqltoken"
	"speakql/internal/stream"
)

// EventKind labels one logged interaction.
type EventKind string

// Interaction kinds.
const (
	EventDictateFull   EventKind = "dictate-full"
	EventDictateClause EventKind = "dictate-clause"
	EventKeyboardTouch EventKind = "keyboard"
)

// Event is one logged interaction. The JSON tags are the handoff codec's:
// the effort log travels inside session snapshots (store.go).
type Event struct {
	Kind    EventKind `json:"kind"`
	Detail  string    `json:"detail,omitempty"`
	Touches int       `json:"touches,omitempty"` // touch/click cost of this event (0 for dictations)
}

// Session is one interactive query-composition session.
type Session struct {
	engine *core.Engine
	tokens []string
	events []Event
	// dict is the latest clause-streaming dictation, nil before the first
	// fragment; finalized closes it to further fragments (streaming.go).
	dict      *core.FragmentSession
	finalized bool
	streamCfg stream.Config
}

// New starts an empty session over the given engine.
func New(engine *core.Engine) *Session {
	return &Session{engine: engine}
}

// Tokens returns the current query tokens shown in the display.
func (s *Session) Tokens() []string { return append([]string(nil), s.tokens...) }

// SQL renders the current display string.
func (s *Session) SQL() string { return strings.Join(s.tokens, " ") }

// Events returns the interaction log.
func (s *Session) Events() []Event { return append([]Event(nil), s.events...) }

// Touches totals the touch/click effort so far.
func (s *Session) Touches() int {
	n := 0
	for _, e := range s.events {
		n += e.Touches
	}
	return n
}

// Dictations counts dictation and re-dictation attempts.
func (s *Session) Dictations() int {
	n := 0
	for _, e := range s.events {
		if e.Kind == EventDictateFull || e.Kind == EventDictateClause ||
			e.Kind == EventDictateFragment {
			n++
		}
	}
	return n
}

// Effort is the paper's units-of-effort metric: touches/clicks (including
// keyboard strokes) plus dictation attempts.
func (s *Session) Effort() int { return s.Touches() + s.Dictations() }

// CostRecordButton is the touch cost of one dictation attempt: tapping the
// record button and confirming the result. The paper's units-of-effort
// metric counts these interface touches alongside keyboard strokes, which
// is why even a perfectly-corrected one-shot dictation costs a few units
// (Table 7C's simple queries bottom out around 5, not 1).
const CostRecordButton = 2

// DictateFull runs the whole-query pipeline ("Record" button) and replaces
// the display.
func (s *Session) DictateFull(transcript string) {
	s.DictateFullContext(context.Background(), transcript)
}

// DictateFullContext is DictateFull under a request context: an expired
// deadline leaves the display holding the engine's partial (possibly empty)
// output. The dictation attempt is logged either way — the user pressed the
// button. The engine's Output is returned so callers can surface its
// degradation level.
func (s *Session) DictateFullContext(ctx context.Context, transcript string) core.Output {
	out := s.engine.CorrectContext(ctx, transcript)
	s.tokens = out.Best().Tokens
	s.events = append(s.events, Event{Kind: EventDictateFull, Detail: transcript, Touches: CostRecordButton})
	return out
}

// clauseHeads mark where each clause starts in a token stream.
var clauseHeads = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true,
	"GROUP": true, "ORDER": true, "LIMIT": true,
}

// clauseOf returns the clause keyword a transcript dictates ("SELECT",
// "WHERE", …), or "" if unrecognizable.
func clauseOf(transcript string) string {
	toks := sqltoken.SubstituteSpokenForms(sqltoken.TokenizeTranscript(transcript))
	if len(toks) == 0 {
		return ""
	}
	head := strings.ToUpper(toks[0])
	if clauseHeads[head] {
		return head
	}
	return ""
}

// clauseSpan finds the token span [lo, hi) of the clause starting with head
// in the current display; ok=false when the clause is absent.
func (s *Session) clauseSpan(head string) (lo, hi int, ok bool) {
	lo = -1
	for i, t := range s.tokens {
		up := strings.ToUpper(t)
		if lo < 0 {
			if up == head {
				lo = i
			}
			continue
		}
		if clauseHeads[up] {
			return lo, i, true
		}
	}
	if lo < 0 {
		return 0, 0, false
	}
	return lo, len(s.tokens), true
}

// DictateClause re-dictates one clause (the per-clause record buttons of
// Figure 5A): the clause's token span is replaced by splicing the new
// dictation into the rest of the query and re-running the engine, which
// keeps the whole display syntactically valid. If the current display lacks
// the clause (or is empty), the dictation is appended in clause order.
func (s *Session) DictateClause(transcript string) {
	s.DictateClauseContext(context.Background(), transcript)
}

// DictateClauseContext is DictateClause under a request context (see
// DictateFullContext for deadline and return semantics).
func (s *Session) DictateClauseContext(ctx context.Context, transcript string) core.Output {
	head := clauseOf(transcript)
	s.events = append(s.events, Event{Kind: EventDictateClause, Detail: transcript, Touches: CostRecordButton})
	if head == "" || len(s.tokens) == 0 {
		out := s.engine.CorrectContext(ctx, transcript)
		s.tokens = out.Best().Tokens
		return out
	}
	lo, hi, ok := s.clauseSpan(head)
	var parts []string
	if ok {
		parts = append(parts, s.tokens[:lo]...)
		parts = append(parts, transcriptTokens(transcript)...)
		parts = append(parts, s.tokens[hi:]...)
	} else {
		parts = append(parts, s.tokens...)
		parts = append(parts, transcriptTokens(transcript)...)
	}
	out := s.engine.CorrectContext(ctx, strings.Join(parts, " "))
	s.tokens = out.Best().Tokens
	return out
}

func transcriptTokens(transcript string) []string {
	return sqltoken.SubstituteSpokenForms(sqltoken.TokenizeTranscript(transcript))
}

// Touch costs of the SQL Keyboard (Figure 5B). Keywords, table names, and
// attribute names are single list taps (plus one tap to place the cursor);
// attribute values use autocomplete; dates use the scrollable picker.
const (
	// CostListToken: cursor tap + list tap.
	CostListToken = 2
	// CostValueAutocomplete: cursor tap + a few characters + suggestion tap.
	CostValueAutocomplete = 4
	// CostDatePicker: cursor tap + three wheel flicks.
	CostDatePicker = 4
	// CostDelete: cursor tap + delete key.
	CostDelete = 2
)

// TouchCost estimates the SQL-Keyboard touches needed to produce tok.
func TouchCost(tok string) int {
	switch {
	case sqltoken.IsKeyword(tok) || sqltoken.IsSplChar(tok):
		return CostListToken
	case looksLikeDate(tok):
		return CostDatePicker
	case isNumber(tok):
		return CostValueAutocomplete
	default:
		return CostListToken + 1 // schema lists are longer; one scroll flick
	}
}

func looksLikeDate(tok string) bool {
	return len(tok) == 10 && tok[4] == '-' && tok[7] == '-'
}

func isNumber(tok string) bool {
	for i := 0; i < len(tok); i++ {
		if (tok[i] < '0' || tok[i] > '9') && tok[i] != '.' {
			return false
		}
	}
	return len(tok) > 0
}

// InsertToken inserts tok at position i via the SQL Keyboard.
func (s *Session) InsertToken(i int, tok string) {
	if i < 0 {
		i = 0
	}
	if i > len(s.tokens) {
		i = len(s.tokens)
	}
	s.tokens = append(s.tokens[:i], append([]string{tok}, s.tokens[i:]...)...)
	s.events = append(s.events, Event{Kind: EventKeyboardTouch, Detail: "insert " + tok, Touches: TouchCost(tok)})
}

// DeleteToken removes the token at position i.
func (s *Session) DeleteToken(i int) {
	if i < 0 || i >= len(s.tokens) {
		return
	}
	s.tokens = append(s.tokens[:i], s.tokens[i+1:]...)
	s.events = append(s.events, Event{Kind: EventKeyboardTouch, Detail: "delete", Touches: CostDelete})
}

// ReplaceToken replaces the token at position i (in-place edit of a stray
// token, the keyboard's main use).
func (s *Session) ReplaceToken(i int, tok string) {
	if i < 0 || i >= len(s.tokens) {
		return
	}
	s.tokens[i] = tok
	s.events = append(s.events, Event{Kind: EventKeyboardTouch, Detail: "replace " + tok, Touches: TouchCost(tok)})
}

// SetTokens replaces the display without logging effort (used to restore
// state in tests and the HTTP backend).
func (s *Session) SetTokens(toks []string) {
	s.tokens = append([]string(nil), toks...)
}
