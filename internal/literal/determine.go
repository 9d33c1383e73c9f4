package literal

import (
	"strconv"
	"strings"

	"speakql/internal/faultinject"
	"speakql/internal/grammar"
	"speakql/internal/speech"
	"speakql/internal/sqltoken"
)

// WindowSize bounds the number of consecutive transcript tokens merged into
// one candidate literal (Box 3's WindowSize): ASR splits one SQL token into
// at most a handful of sub-tokens, and identifiers rarely exceed four words.
const WindowSize = 4

// Binding is the ranked literal assignment for one placeholder variable.
type Binding struct {
	Placeholder string           // e.g. "x1"
	Category    grammar.Category // T, A, V, or N
	TopK        []string         // ranked candidates, best first
	Begin, End  int              // transcript window [Begin, End) used
}

// Best returns the top candidate, or "" when none was found.
func (b Binding) Best() string {
	if len(b.TopK) == 0 {
		return ""
	}
	return b.TopK[0]
}

// Determine maps every placeholder in bestStruct to a ranked literal list
// (Box 3's LiteralFinder). transOut is the processed transcript; k is the
// number of candidates retained per placeholder.
//
// Window assignment follows the paper's EndIndex rule — a placeholder's
// window runs to the transcript position of the structure's next
// non-literal token — made robust to corrupted anchors (WHERE heard as
// "wear") by aligning the structure's keyword/splchar anchors with the
// transcript's via a longest common subsequence. Placeholders whose
// surrounding anchors were lost share one transcript gap; each then
// consumes tokens up to its winning vote's position, always reserving at
// least one token per remaining placeholder in the gap.
func Determine(transOut, bestStruct []string, cat *Catalog, k int) []Binding {
	bs, _ := DetermineErr(transOut, bestStruct, cat, k)
	return bs
}

// DetermineErr is Determine with an error channel. Today the only error
// source is the stage's fault-injection hook (rehearsing a failed literal
// backend); the engine degrades a failed fill to a structure-only response
// rather than dropping the request.
func DetermineErr(transOut, bestStruct []string, cat *Catalog, k int) ([]Binding, error) {
	return DetermineMemoErr(transOut, bestStruct, cat, k, nil)
}

// DetermineMemoErr is DetermineErr with a per-session VoteMemo: voting work
// for windows already scored in an earlier fragment of the same dictation is
// replayed from the memo instead of recomputed. memo may be nil (no
// memoization); results are bit-identical either way.
func DetermineMemoErr(transOut, bestStruct []string, cat *Catalog, k int, memo *VoteMemo) ([]Binding, error) {
	if err := faultinject.Fire(faultinject.StageLiteral); err != nil {
		return nil, err
	}
	if k < 1 {
		k = 1
	}
	cats := grammar.AssignCategories(bestStruct)
	gaps := alignGaps(transOut, bestStruct)
	var bindings []Binding
	ci := 0
	lastAttr := "" // most recent A-binding; scopes column-aware value voting
	for pi, tok := range bestStruct {
		if sqltoken.Classify(tok) != sqltoken.Literal {
			continue
		}
		category := cats[ci]
		ci++
		g := gaps[pi]
		begin, end := g.cursor(), g.end
		// Reserve one token per placeholder still waiting in this gap.
		usable := end - g.reserve()
		if usable < begin {
			usable = begin
		}
		// The window is the whole gap slice, including unmatched dictionary
		// tokens: a keyword inside a gap is most likely a homophone-
		// corrupted literal fragment (Table 1's "fromdate" → "from date"),
		// so it must stay available as voting material. This deliberately
		// extends Box 3's EnumerateStrings, which skips dictionary tokens.
		b := Binding{Placeholder: tok, Category: category, Begin: begin, End: usable}
		window := transOut[begin:usable]
		var consumedTo int
		switch category {
		case grammar.CatValue:
			b.TopK, consumedTo = determineValue(window, begin, cat, lastAttr, k, memo)
		case grammar.CatLimit:
			b.TopK, consumedTo = determineNumber(window, begin)
		case grammar.CatTable:
			b.TopK, consumedTo = voteMemo(window, begin, &cat.tables, k, memo)
		default:
			b.TopK, consumedTo = voteMemo(window, begin, &cat.attrs, k, memo)
			lastAttr = b.Best()
		}
		if len(b.TopK) == 0 {
			// Nothing usable in the window (e.g. the transcript dropped the
			// token). Fall back to the lexicographically-first catalog
			// literal of the right category so the query stays executable;
			// the interactive interface lets the user fix it.
			b.TopK = fallback(category, cat, k)
			consumedTo = begin - 1
		}
		bindings = append(bindings, b)
		g.advance(consumedTo + 1)
	}
	return bindings, nil
}

// gap is one transcript span shared by one or more placeholders.
type gap struct {
	begin, end int // transcript token range [begin, end)
	members    int // placeholders assigned to this gap
	done       int // placeholders already bound
	pos        int // consumption cursor
}

func (g *gap) cursor() int { return g.pos }

func (g *gap) reserve() int { return g.members - g.done - 1 }

func (g *gap) advance(to int) {
	g.done++
	if to > g.pos {
		g.pos = to
	}
	if g.pos < g.begin {
		g.pos = g.begin
	}
	if g.pos > g.end {
		g.pos = g.end
	}
}

// alignGaps matches the structure's non-literal anchor tokens against the
// transcript's by LCS and returns, for each placeholder position in the
// structure, its (shared) transcript gap.
func alignGaps(transOut, bestStruct []string) map[int]*gap {
	type anchor struct {
		tok string
		pos int
	}
	var sa, ta []anchor
	for i, t := range bestStruct {
		if sqltoken.Classify(t) != sqltoken.Literal {
			sa = append(sa, anchor{strings.ToUpper(t), i})
		}
	}
	for i, t := range transOut {
		if sqltoken.Classify(t) != sqltoken.Literal {
			ta = append(ta, anchor{strings.ToUpper(t), i})
		}
	}
	// LCS over anchor token strings.
	n, m := len(sa), len(ta)
	dp := make([][]int16, n+1)
	for i := range dp {
		dp[i] = make([]int16, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if sa[i].tok == ta[j].tok {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	// matchTrans[si] = transcript position of the matched anchor. When an
	// anchor could match several transcript tokens without shrinking the
	// LCS (two FROMs because an identifier's "from" fragment was heard as
	// the keyword), prefer the later one: that keeps the earlier token
	// inside the preceding placeholder's window, where it belongs.
	matchTrans := make(map[int]int) // struct pos → trans pos
	for i, j := 0, 0; i < n && j < m; {
		switch {
		case sa[i].tok == ta[j].tok && dp[i][j] == dp[i+1][j+1]+1 && dp[i][j] > dp[i][j+1]:
			matchTrans[sa[i].pos] = ta[j].pos
			i++
			j++
		case dp[i+1][j] > dp[i][j+1]:
			i++
		default:
			j++
		}
	}

	// For each placeholder, find the nearest matched anchors on both sides.
	gaps := make(map[int]*gap)
	byRange := make(map[[2]int]*gap)
	for p, t := range bestStruct {
		if sqltoken.Classify(t) != sqltoken.Literal {
			continue
		}
		lo := 0
		for s := p - 1; s >= 0; s-- {
			if tp, ok := matchTrans[s]; ok {
				lo = tp + 1
				break
			}
		}
		hi := len(transOut)
		for s := p + 1; s < len(bestStruct); s++ {
			if tp, ok := matchTrans[s]; ok {
				hi = tp
				break
			}
		}
		key := [2]int{lo, hi}
		g, ok := byRange[key]
		if !ok {
			g = &gap{begin: lo, end: hi, pos: lo}
			byRange[key] = g
		}
		g.members++
		gaps[p] = g
	}
	return gaps
}

// vote implements the literal-voting algorithm of Section 4.3 / Box 3's
// LiteralAssignment over one transcript window: every enumerated substring
// (phonetically encoded) votes for its closest catalog entries; the entry
// with the most votes wins. Vote ties break first by raw character edit
// distance to the heard text (so "Jon" beats "John" when the transcript
// says "Jon"), then lexicographically. Returns the ranked top-k and the
// transcript position consumed.
//
// The work runs on the set's phonetic BK-tree through a pooled scratch
// (votescratch.go). Every entry belongs to a phonetic group and every group
// to the tree, so an empty tree means an empty set.
func vote(window []string, base int, set *catSet, k int) ([]string, int) {
	if len(window) == 0 || len(set.bk) == 0 {
		return nil, base
	}
	s := getVoteScratch()
	top, pos := s.run(window, base, set, k)
	var out []string
	if len(top) > 0 {
		out = make([]string, len(top))
		copy(out, top) // scratch-backed; copy before recycling
	}
	putVoteScratch(s)
	return out, pos
}

// determineValue fills a V-type placeholder: dates and numbers are
// reassembled from the transcript (they are not in the phonetic catalog),
// everything else goes to string voting — against the bound attribute's own
// column domain when the catalog carries one (column-aware extension), else
// the global value set.
func determineValue(window []string, base int, cat *Catalog, lastAttr string, k int, memo *VoteMemo) ([]string, int) {
	if len(window) == 0 {
		return nil, base
	}
	values := &cat.values
	if col, ok := cat.columnValues(lastAttr); ok {
		values = col
	}
	// Date: month name or a full date literal anywhere in the window.
	if hasMonthOrDate(window) {
		if d, used, ok := parseDateWindow(window); ok {
			return []string{d.String()}, base + used - 1
		}
	}
	// Exact code assembly: identifier-style values like d002 are spoken as
	// letter + digit words; reassemble prefixes of the window and accept an
	// exact (case-insensitive) catalog hit before any fuzzy matching.
	if name, used, ok := assembleCode(window, values); ok {
		return []string{name}, base + used - 1
	}
	// Number: numeral tokens or spoken number words.
	if tops, end := determineNumber(window, base); len(tops) > 0 {
		return tops, end
	}
	return voteMemo(window, base, values, k, memo)
}

// determineNumber recognizes a numeric value at the head of the window,
// merging ASR-resegmented numerals ("45000 310" → 45310, "1 7 2 9" → 1729)
// and parsing spoken number words. Returns nil when the head is not
// numeric.
func determineNumber(window []string, base int) ([]string, int) {
	if len(window) == 0 {
		return nil, base
	}
	// Numeral run.
	if isNumeral(window[0]) {
		n := int64(0)
		i := 0
		for i < len(window) && isNumeral(window[i]) {
			v, _ := strconv.ParseInt(window[i], 10, 64)
			n = mergeNumeral(n, window[i], v)
			i++
		}
		return []string{strconv.FormatInt(n, 10)}, base + i - 1
	}
	// Spoken number words.
	run := 0
	for run < len(window) {
		if _, ok := speech.WordsToNumber(window[run : run+1]); !ok &&
			!isScaleWord(window[run]) {
			break
		}
		run++
	}
	if run == 0 {
		return nil, base
	}
	if v, ok := speech.WordsToNumber(window[:run]); ok {
		return []string{strconv.FormatInt(v, 10)}, base + run - 1
	}
	return nil, base
}

// mergeNumeral folds the next numeral fragment into the accumulator: if it
// fits inside the accumulator's trailing zeros it is added (45000 + 310),
// otherwise the decimal digits are concatenated (1 · 7 → 17).
func mergeNumeral(acc int64, digits string, v int64) int64 {
	if acc == 0 {
		return v
	}
	zeros := int64(1)
	s := strconv.FormatInt(acc, 10)
	for i := len(s) - 1; i >= 0 && s[i] == '0'; i-- {
		zeros *= 10
	}
	if v < zeros {
		return acc + v
	}
	shift := int64(1)
	for range digits {
		shift *= 10
	}
	return acc*shift + v
}

// assembleCode concatenates window prefixes with single-digit number words
// folded to digits ("d zero zero two" → "d", "d0", "d00", "d002") and
// returns the first exact case-insensitive catalog match, longest prefix
// first. Each prefix probes the set's lowered-name map instead of
// rescanning the value slice, so a miss costs O(window), not
// O(window × catalog).
func assembleCode(window []string, values *catSet) (string, int, bool) {
	limit := len(window)
	if limit > 2*WindowSize {
		limit = 2 * WindowSize
	}
	built := make([]string, 0, limit)
	var sb strings.Builder
	for i := 0; i < limit; i++ {
		w := strings.ToLower(window[i])
		if n, ok := speech.WordsToNumber([]string{w}); ok && n <= 9 {
			sb.WriteString(strconv.FormatInt(n, 10))
		} else {
			sb.WriteString(w)
		}
		built = append(built, sb.String())
	}
	for i := len(built) - 1; i >= 0; i-- {
		if ei, ok := values.byLower[built[i]]; ok {
			return values.entries[ei].Name, i + 1, true
		}
	}
	return "", 0, false
}

func isNumeral(tok string) bool {
	if tok == "" {
		return false
	}
	for i := 0; i < len(tok); i++ {
		if tok[i] < '0' || tok[i] > '9' {
			return false
		}
	}
	return true
}

func isScaleWord(w string) bool {
	switch strings.ToLower(w) {
	case "hundred", "thousand", "million", "billion", "oh":
		return true
	}
	return false
}

func hasMonthOrDate(window []string) bool {
	for _, w := range window {
		if speech.MonthNumber(w) != 0 {
			return true
		}
		if _, ok := speech.ParseDateLiteral(w); ok {
			return true
		}
	}
	return false
}

// parseDateWindow recovers a date from the window: a full date literal
// token, or a spoken/mangled month-day-year sequence.
func parseDateWindow(window []string) (speech.Date, int, bool) {
	for i, w := range window {
		if d, ok := speech.ParseDateLiteral(w); ok {
			return d, i + 1, true
		}
	}
	// Try progressively longer spans starting at the month token.
	start := 0
	for start < len(window) && speech.MonthNumber(window[start]) == 0 {
		start++
	}
	if start == len(window) {
		return speech.Date{}, 0, false
	}
	for end := len(window); end > start+1; end-- {
		if d, ok := speech.ParseSpokenDate(window[start:end]); ok {
			return d, end, true
		}
	}
	return speech.Date{}, 0, false
}

func fallback(category grammar.Category, cat *Catalog, k int) []string {
	var es []entry
	switch category {
	case grammar.CatTable:
		es = cat.tables.entries
	case grammar.CatAttr:
		es = cat.attrs.entries
	case grammar.CatValue:
		es = cat.values.entries
	default:
		return []string{"10"} // a LIMIT count must be numeric
	}
	top := make([]string, 0, k)
	for _, e := range es {
		if len(top) == k {
			break
		}
		top = append(top, e.Name)
	}
	return top
}

// Fill substitutes each binding's best literal into the structure and
// returns the completed token sequence (Figure 2's "Filled Literal
// Placeholders"). V-type string values keep their catalog form; rendering
// with quotes is RenderSQL's job.
func Fill(bestStruct []string, bindings []Binding) []string {
	byName := make(map[string]Binding, len(bindings))
	for _, b := range bindings {
		byName[b.Placeholder] = b
	}
	out := make([]string, len(bestStruct))
	for i, tok := range bestStruct {
		if b, ok := byName[tok]; ok && b.Best() != "" {
			out[i] = b.Best()
		} else {
			out[i] = tok
		}
	}
	return out
}

// RenderSQL renders the filled token sequence as a SQL string, quoting
// attribute values that are not plain numbers.
func RenderSQL(bestStruct []string, bindings []Binding) string {
	byName := make(map[string]Binding, len(bindings))
	for _, b := range bindings {
		byName[b.Placeholder] = b
	}
	parts := make([]string, 0, len(bestStruct))
	for _, tok := range bestStruct {
		b, ok := byName[tok]
		if !ok || b.Best() == "" {
			parts = append(parts, tok)
			continue
		}
		v := b.Best()
		if b.Category == grammar.CatValue && !isNumeral(v) {
			v = "'" + v + "'"
		}
		parts = append(parts, v)
	}
	return strings.Join(parts, " ")
}
