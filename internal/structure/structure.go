// Package structure implements the Structure Determination component of
// Section 3 (Figure 3): given a raw ASR transcript, it substitutes spoken
// forms of special characters, masks literals, searches the trie index of
// pre-generated grammar structures for the closest match under the
// SQL-specific weighted edit distance, and returns a syntactically correct
// SQL skeleton with numbered placeholder variables (x1, x2, …). One-level
// nested queries are handled with the splitting heuristic of Appendix F.8.
package structure

import (
	"context"
	"strconv"
	"strings"

	"speakql/internal/faultinject"
	"speakql/internal/grammar"
	"speakql/internal/obs"
	"speakql/internal/sqltoken"
	"speakql/internal/trieindex"
)

// Component is a ready-to-search structure determiner. Build it once (index
// construction is the offline part of Section 3.2) and reuse it; Determine
// is safe for concurrent use.
type Component struct {
	ix    *trieindex.Index
	opts  trieindex.Options
	cfg   grammar.GenConfig
	cache SearchCache
}

// SearchCache memoizes trie searches by masked transcript. The interface
// lives here (the consumer) so the LRU implementation in internal/core can
// depend on structure without a cycle. Implementations must be safe for
// concurrent use; cached values are shared, so callers must not mutate the
// returned Results' token slices (this package never does).
type SearchCache interface {
	Get(key string) ([]trieindex.Result, trieindex.Stats, bool)
	Put(key string, rs []trieindex.Result, st trieindex.Stats)
}

// SetSearchCache installs a search memo cache. The masked transcript is the
// searcher's only input, so the cache key is the masked token sequence plus
// k; one cache must not be shared between components with different search
// options or different indexes. Call before serving traffic.
func (c *Component) SetSearchCache(sc SearchCache) { c.cache = sc }

// Config bundles the generation scale.
type Config struct {
	Grammar grammar.GenConfig
}

// New generates the structure corpus for cfg.Grammar and indexes it. The
// component searches in the exact mode; the ablations that change the
// search options wrap an index with NewFromIndex.
func New(cfg Config) (*Component, error) {
	ix, err := BuildIndex(cfg.Grammar, false)
	if err != nil {
		return nil, err
	}
	return &Component{ix: ix, cfg: cfg.Grammar}, nil
}

// BuildIndex generates the structure corpus for gcfg and builds its trie
// index (the offline step of Section 3.2). keepINV keeps the inverted lists
// the INV search option needs.
func BuildIndex(gcfg grammar.GenConfig, keepINV bool) (*trieindex.Index, error) {
	b := trieindex.NewBuilder(gcfg.MaxTokens, keepINV)
	err := grammar.Generate(gcfg, func(toks []string) bool {
		b.Insert(toks)
		return true
	})
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// NewFromIndex wraps an existing index (used by ablation experiments that
// share one index across option settings).
func NewFromIndex(ix *trieindex.Index, opts trieindex.Options, cfg grammar.GenConfig) *Component {
	return &Component{ix: ix, opts: opts, cfg: cfg}
}

// Index exposes the underlying index (for stats and ablations).
func (c *Component) Index() *trieindex.Index { return c.ix }

// Result is one determined structure.
type Result struct {
	// Structure is the syntactically correct skeleton with numbered
	// placeholders, e.g. SELECT x1 FROM x2 WHERE x3 = x4.
	Structure []string
	// Distance is the weighted edit distance between the masked transcript
	// and the matched grammar structure.
	Distance float64
	// Transcript is the processed transcript (after spoken-form
	// substitution), which literal determination consumes as TransOut.
	Transcript []string
	// Stats reports search work (ablation experiments).
	Stats trieindex.Stats
}

// Determine returns the best structure for a raw ASR transcript.
func (c *Component) Determine(transcript string) Result {
	rs := c.DetermineTopKContext(context.Background(), transcript, 1)
	if len(rs) == 0 {
		return Result{}
	}
	return rs[0]
}

// DetermineTopKContext returns the k best structures, closest first. The
// trie search checks ctx at partition boundaries, so an expired deadline
// returns the best structures found so far (possibly none) rather than
// completing the sweep.
func (c *Component) DetermineTopKContext(ctx context.Context, transcript string, k int) []Result {
	rs, _ := c.DetermineTopKErr(ctx, transcript, k)
	return rs
}

// DetermineTopKErr is DetermineTopKContext with an error channel. Today
// the only error source is the stage's fault-injection hook (rehearsing a
// failed search backend); callers that cannot act on errors use
// DetermineTopKContext and treat failure as an empty result.
func (c *Component) DetermineTopKErr(ctx context.Context, transcript string, k int) ([]Result, error) {
	span := obs.StartSpan("structure.determine")
	defer span.End()
	if err := faultinject.Fire(faultinject.StageStructure); err != nil {
		obs.Add("structure.injected_errors", 1)
		return nil, err
	}
	toks := sqltoken.SubstituteSpokenForms(sqltoken.TokenizeTranscript(transcript))
	outer, inner := splitNested(toks)
	masked := sqltoken.MaskGeneric(outer)
	cands, stats := c.searchTopK(ctx, masked, k)
	// The split-off nested query (Appendix F.8) goes through the same
	// cached search; its best structure is spliced into every candidate.
	var innerStruct []string
	if inner != nil {
		if innerCands, _ := c.searchTopK(ctx, sqltoken.MaskGeneric(inner), 1); len(innerCands) > 0 {
			innerStruct = innerCands[0].Tokens
		}
	}
	results := make([]Result, 0, len(cands))
	for _, cand := range cands {
		st := cand.Tokens
		if innerStruct != nil {
			st = spliceNested(st, innerStruct)
		}
		results = append(results, Result{
			Structure:  numberPlaceholders(st),
			Distance:   cand.Distance,
			Transcript: toks,
			Stats:      stats,
		})
	}
	return results, nil
}

// searchTopK runs the trie search through the memo cache, when one is
// installed. The masked transcript plus k is the search's entire input (the
// component's options and index are fixed), so equal keys always mean equal
// results — repeated masked shapes, which dominate dictation sessions and
// the Table 2 sweeps, skip the trie walk entirely. Cancelled searches are
// not cached: their results are legitimately partial. Only a search that
// ran feeds the work counters; a hit returns the stats of the search that
// filled the entry.
func (c *Component) searchTopK(ctx context.Context, masked []string, k int) ([]trieindex.Result, trieindex.Stats) {
	var key string
	if c.cache != nil {
		key = cacheKey(masked, k)
		if rs, st, ok := c.cache.Get(key); ok {
			return rs, st
		}
	}
	rs, st := c.ix.SearchTopKContext(ctx, masked, k, c.opts)
	recordSearchStats(st)
	if c.cache != nil && ctx.Err() == nil {
		c.cache.Put(key, rs, st)
	}
	return rs, st
}

// cacheKey encodes a masked transcript and k. Masked tokens never contain
// newlines (the transcript tokenizer splits on whitespace), so a newline
// join is collision-free.
func cacheKey(masked []string, k int) string {
	var b strings.Builder
	b.Grow(len(masked)*4 + 8)
	for _, t := range masked {
		b.WriteString(t)
		b.WriteByte('\n')
	}
	b.WriteString(strconv.Itoa(k))
	return b.String()
}

// recordSearchStats feeds one search's work counters into the obs layer,
// where GET /api/stats aggregates them across requests.
func recordSearchStats(st trieindex.Stats) {
	obs.Add("search.nodes_visited", int64(st.NodesVisited))
	obs.Add("search.dive_steps", int64(st.DiveSteps))
	obs.Add("search.tries_searched", int64(st.TriesSearched))
	obs.Add("search.tries_skipped_bdb", int64(st.TriesSkipped))
	obs.Add("search.inv_scanned", int64(st.InvScanned))
	if st.UsedINV {
		obs.Add("search.inv_hits", 1)
	}
}

// splitNested implements the Appendix F.8 heuristic: if a second SELECT
// occurs in the transcript, the span from it to its matching close paren
// (or the end) is treated as a one-level nested query. The outer query gets
// a single literal placeholder in its place. Returns (outer, nil) when no
// nesting is detected.
func splitNested(toks []string) (outer, inner []string) {
	selIdx := -1
	for i, t := range toks {
		if strings.EqualFold(t, "SELECT") && i > 0 {
			selIdx = i
			break
		}
	}
	if selIdx < 0 {
		return toks, nil
	}
	end := len(toks)
	depth := 0
	for i := selIdx; i < len(toks); i++ {
		switch toks[i] {
		case "(":
			depth++
		case ")":
			if depth == 0 {
				end = i
			} else {
				depth--
			}
		}
		if end != len(toks) {
			break
		}
	}
	outer = append(outer, toks[:selIdx]...)
	outer = append(outer, grammar.Lit)
	outer = append(outer, toks[end:]...)
	inner = toks[selIdx:end]
	return outer, inner
}

// spliceNested re-inserts the inner structure in place of the last
// value-position placeholder inside parentheses of the outer structure —
// the IN ( x ) shape — or appends it parenthesized if no such slot exists.
func spliceNested(outer, inner []string) []string {
	for i := len(outer) - 1; i >= 2; i-- {
		if outer[i] == ")" && i >= 2 && outer[i-2] == "(" &&
			sqltoken.Classify(outer[i-1]) == sqltoken.Literal {
			out := make([]string, 0, len(outer)+len(inner))
			out = append(out, outer[:i-1]...)
			out = append(out, inner...)
			out = append(out, outer[i:]...)
			return out
		}
	}
	out := append([]string{}, outer...)
	out = append(out, "(")
	out = append(out, inner...)
	return append(out, ")")
}

// numberPlaceholders rewrites each generic literal symbol as x1, x2, … in
// order of appearance, producing the placeholder naming of Figure 2.
func numberPlaceholders(st []string) []string {
	out := make([]string, len(st))
	n := 0
	for i, t := range st {
		if sqltoken.Classify(t) == sqltoken.Literal {
			n++
			out[i] = sqltoken.Placeholder(n)
		} else {
			out[i] = t
		}
	}
	return out
}
