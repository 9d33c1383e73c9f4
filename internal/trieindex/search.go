package trieindex

import (
	"context"
	"math"
	"sort"

	"speakql/internal/sqltoken"
)

// Result is one structure returned by search, with its weighted edit
// distance to the query.
type Result struct {
	Tokens   []string
	Distance float64
}

// Stats reports work done by one search, used by the ablation experiments
// (Figure 15) to show what each optimization saves.
type Stats struct {
	NodesVisited  int // trie nodes the partition sweep visited
	DiveSteps     int // DP columns the warm-start dive stepped (dive.go)
	TriesSearched int
	TriesSkipped  int // skipped by BDB
	InvScanned    int // structures scanned via the inverted index
	UsedINV       bool
}

// Search returns the closest structure to maskOut (ties broken by
// enumeration order). It is Box 2's algorithm with k=1.
func (ix *Index) Search(maskOut []string, opts Options) (Result, Stats) {
	rs, st := ix.SearchTopKContext(context.Background(), maskOut, 1, opts)
	if len(rs) == 0 {
		return Result{}, st
	}
	return rs[0], st
}

// SearchTopK returns the k closest structures in increasing distance order,
// ties broken by enumeration order. With opts zero-valued this is the exact
// algorithm (BDB on); DAP and INV trade accuracy for latency per Appendix
// D.3.
func (ix *Index) SearchTopK(maskOut []string, k int, opts Options) ([]Result, Stats) {
	return ix.SearchTopKContext(context.Background(), maskOut, k, opts)
}

// SearchTopKContext is SearchTopK with cancellation: ctx is checked at
// partition (per-length trie) boundaries — never mid-trie — so an expired
// deadline stops the search promptly and returns the best results found so
// far. An already-cancelled context returns nil without searching.
func (ix *Index) SearchTopKContext(ctx context.Context, maskOut []string, k int, opts Options) ([]Result, Stats) {
	var st Stats
	if k <= 0 || ix.total == 0 || ctx.Err() != nil {
		return nil, st
	}
	s := ix.getSearcher(maskOut, k, opts, &st)
	return ix.runSearcher(ctx, s)
}

// runSearcher drives a prepared searcher through the INV fast path, the
// warm-start dive (dive.go; every mode but DAP) and the bidirectional
// partition sweep, recycles it, and returns results plus stats.
func (ix *Index) runSearcher(ctx context.Context, s *searcher) ([]Result, Stats) {
	if s.opts.INV {
		if s.searchINV() {
			s.st.UsedINV = true
			st := *s.st
			out := s.results()
			ix.putSearcher(s)
			return out, st
		}
	}
	if !s.opts.DAP {
		s.dive(ctx)
	}
	// Bidirectional order of Box 2: lengths m, m−1, …, 1 then m+1, …, max.
	// Trying the closest lengths first makes the BDB threshold tighten
	// quickly.
	for _, n := range s.partitionOrder(len(s.q)) {
		if ctx.Err() != nil {
			break
		}
		s.searchLen(n)
	}
	st := *s.st
	out := s.results()
	ix.putSearcher(s)
	return out, st
}

// getSearcher takes a searcher from the index's pool and prepares it for
// one query: per-query state is reset (the seed to unbounded), the masked
// transcript is interned into the searcher's own scratch buffers, and the
// cost vectors are bound.
func (ix *Index) getSearcher(maskOut []string, k int, opts Options, st *Stats) *searcher {
	s, _ := ix.pool.Get().(*searcher)
	if s == nil {
		s = &searcher{}
	}
	s.ix = ix
	s.k = k
	s.opts = opts
	s.st = st
	s.seq = 0
	s.seed = unbounded
	s.setQuery(maskOut)
	return s
}

// putSearcher recycles a searcher — its column pool, query scratch, and
// heap-entry token buffers — back into the index's pool. The caller must
// have materialized its results first.
func (ix *Index) putSearcher(s *searcher) {
	s.recycle()
	s.ix = nil
	s.st = nil
	s.q, s.qw, s.w = nil, nil, nil
	ix.pool.Put(s)
}

// maxRecycledBuffers bounds the freelist of heap-entry token buffers a
// pooled searcher retains between queries.
const maxRecycledBuffers = 64

// recycle moves the heap entries' token buffers to the freelist and clears
// per-query state, keeping all scratch memory for reuse.
func (s *searcher) recycle() {
	for i := range s.heap {
		if c := s.heap[i].toks; cap(c) > 0 && len(s.free) < maxRecycledBuffers {
			s.free = append(s.free, c[:0])
		}
		s.heap[i].toks = nil
	}
	s.heap = s.heap[:0]
	s.path = s.path[:0]
}

// setQuery interns the masked transcript into the searcher's own buffers
// (unknown tokens map to a never-matching id) and binds the costs.
func (s *searcher) setQuery(maskOut []string) {
	s.qbuf = s.qbuf[:0]
	s.qwbuf = s.qwbuf[:0]
	for _, t := range maskOut {
		s.qbuf = append(s.qbuf, s.ix.in.lookup(t))
		if s.opts.UniformWeights {
			s.qwbuf = append(s.qwbuf, sqltoken.CostLiteral)
		} else {
			s.qwbuf = append(s.qwbuf, sqltoken.Cost(t))
		}
	}
	s.q, s.qw = s.qbuf, s.qwbuf
	s.bindWeights()
	s.bindGap()
}

// bindWeights selects the insertion-cost vector: the index's SQL-specific
// costs, or (under the ablation) W_L for every id, kept per searcher so
// concurrent searchers never share mutable slices.
func (s *searcher) bindWeights() {
	if !s.opts.UniformWeights {
		s.w = s.ix.weights
		return
	}
	for len(s.uw) < len(s.ix.weights) {
		s.uw = append(s.uw, sqltoken.CostLiteral)
	}
	s.w = s.uw[:len(s.ix.weights)]
}

// bindGap fills the node-bound table (Proposition 1 per node, see
// stepInto): gap[j] = |j − m|·W_L for a query of m tokens, so the cell in
// row i of a column with r structure tokens still below it sits
// |(m−i) − r| unmatched tokens off the length diagonal, costing at least
// gap[r+i]. Every token cost is at least W_L, uniform ones included.
// DisableBDB zeroes the table, which collapses the node bound to min(col).
func (s *searcher) bindGap() {
	m := len(s.q)
	s.gap = s.gap[:0]
	for j := 0; j <= m+s.ix.maxLen; j++ {
		var d int32
		if !s.opts.DisableBDB {
			d = lengthGap(j, m)
		}
		s.gap = append(s.gap, d)
	}
}

// lengthGap is Proposition 1's bound |a − b|·W_L: the least cost, in
// tenths, between token strings of lengths a and b.
func lengthGap(a, b int) int32 {
	return int32(max(a-b, b-a)) * sqltoken.CostLiteral
}

// unbounded is the threshold and seed before any distance is known.
const unbounded int32 = math.MaxInt32

// searcher carries the per-query search state. Searchers are pooled per
// index: the buffers below the fold persist across queries, which is what
// makes the steady-state search kernel allocation-free. Costs and DP cells
// are int32 tenths with no overflow guard: a cell read from dead (2^30) or
// from a real distance adds at most 12 per query or structure token and a
// gap entry at most 10 per token, so int32 overflows only past about 48M
// tokens ((2^31 − 2^30)/22), more than the memory of one DP column per trie
// depth allows.
type searcher struct {
	ix   *Index
	q    []tokenID // MaskOut, interned
	qw   []int32   // deletion cost of each MaskOut token
	w    []int32   // insertion cost per interned id (uniform under ablation)
	k    int
	opts Options
	st   *Stats

	heap resultHeap // current best k, worst first
	path []tokenID  // tokens on the current root→node path

	// seq counts offers across the whole sweep: the enumeration order that
	// breaks distance ties.
	seq uint64

	// seed is an upper bound on the final k-th-best distance known before
	// the sweep starts: the warm-start dive's (dive.go), or unbounded.
	seed int32

	// n is the structure length of the trie being searched.
	n int

	// Owned scratch, reused across queries via the searcher pool.
	qbuf   []tokenID // interned query backing
	qwbuf  []int32   // query deletion-cost backing
	uw     []int32   // all-W_L insertion costs (UniformWeights ablation)
	gap    []int32   // node-bound table for the current query (bindGap)
	cols   [][]int32 // DP column pool, one buffer per trie depth
	dapCol []int32   // DAP pass-1 scratch column
	fPrev  []int32   // flatDistance row buffers (INV path)
	fCur   []int32
	free   [][]tokenID // recycled heap-entry token buffers
	order  []int       // partition-order scratch

	// Warm-start scratch (dive.go): the free stack of the beam's DP
	// columns, the beam's two levels, and the k smallest leaf distances
	// recorded.
	diveFree [][]int32
	beamCur  []beamNode
	beamNext []beamNode
	diveBest []int32
}

// column returns the pooled DP column for one trie depth, sized for the
// current query. Buffers are created on first use at each depth and then
// live for the searcher's lifetime.
func (s *searcher) column(depth int) []int32 {
	for len(s.cols) <= depth {
		s.cols = append(s.cols, nil)
	}
	need := len(s.q) + 1
	if cap(s.cols[depth]) < need {
		s.cols[depth] = make([]int32, need)
	}
	s.cols[depth] = s.cols[depth][:need]
	return s.cols[depth]
}

// dapColumn returns the scratch column DAP's scoring pass writes through.
func (s *searcher) dapColumn() []int32 {
	need := len(s.q) + 1
	if cap(s.dapCol) < need {
		s.dapCol = make([]int32, need)
	}
	s.dapCol = s.dapCol[:need]
	return s.dapCol
}

// partitionOrder lists the non-empty trie lengths in Box 2's bidirectional
// search order for a query of qlen tokens, reusing the searcher's scratch.
func (s *searcher) partitionOrder(qlen int) []int {
	ix := s.ix
	m := qlen
	if m > ix.maxLen {
		m = ix.maxLen // queries longer than any structure start at the top
	}
	order := s.order[:0]
	for n := m; n >= 1; n-- {
		if ix.tries[n] != nil {
			order = append(order, n)
		}
	}
	for n := m + 1; n <= ix.maxLen; n++ {
		if ix.tries[n] != nil {
			order = append(order, n)
		}
	}
	s.order = order
	return order
}

// threshold is the local pruning bound: the k-th best distance this
// searcher has kept.
func (s *searcher) threshold() int32 {
	if len(s.heap) < s.k {
		return unbounded
	}
	return s.heap[0].dist
}

// limit is the bound below which a candidate (or subtree lower bound) can
// still reach the final top-k. Against the kept heap that is threshold():
// an equal-distance candidate enumerated later always loses the tie to the
// kept one. Against the seed it is seed+1: the seed only bounds the final
// k-th best from above, so a candidate at exactly the seed may still
// belong to the top k and must survive the prune.
func (s *searcher) limit() int32 {
	if t := s.threshold(); t <= s.seed {
		return t
	}
	return s.seed + 1
}

// viable reports whether a candidate at distance d can still reach the
// final top-k.
func (s *searcher) viable(d int32) bool {
	return d < s.limit()
}

// offer records a candidate leaf. Token buffers are recycled: an evicted
// entry's buffer (or one from the freelist) carries the new candidate, so
// steady-state offers allocate nothing.
func (s *searcher) offer(dist int32, toks []tokenID) {
	var buf []tokenID
	if len(s.heap) == s.k {
		if dist >= s.heap[0].dist {
			return
		}
		buf = s.heap.popWorst().toks[:0]
	} else if n := len(s.free) - 1; n >= 0 {
		buf = s.free[n][:0]
		s.free = s.free[:n]
	}
	buf = append(buf, toks...)
	s.seq++
	s.heap.push(heapEntry{dist: dist, seq: s.seq, toks: buf})
}

func (s *searcher) results() []Result {
	entries := append([]heapEntry(nil), s.heap...)
	sort.Slice(entries, func(i, j int) bool { return entries[j].worse(entries[i]) })
	out := make([]Result, len(entries))
	for i, e := range entries {
		out[i] = Result{Tokens: s.ix.stringsOf(e.toks), Distance: float64(e.dist) / sqltoken.CostScale}
	}
	return out
}

// stringsOf resolves interned ids back to tokens.
func (ix *Index) stringsOf(ids []tokenID) []string {
	toks := make([]string, len(ids))
	for i, id := range ids {
		toks[i] = ix.in.str(id)
	}
	return toks
}

// searchLen searches the trie holding structures of length n with the
// arena kernel (arena.go), unless BDB proves it cannot beat the current
// threshold (Proposition 1: the minimum achievable distance between strings
// of lengths m and n is |m−n|·W_L). Inside the trie the kernel applies the
// same proposition at every node (stepInto).
func (s *searcher) searchLen(n int) {
	tr := s.ix.tries[n]
	if tr == nil {
		return
	}
	if !s.opts.DisableBDB && !s.viable(lengthGap(len(s.q), n)) {
		s.st.TriesSkipped++
		return
	}
	s.st.TriesSearched++
	col := s.column(0)
	s.rootColumn(col)
	s.path = s.path[:0]
	s.n = n
	s.descendFlat(tr, 0, col, 0, len(s.q), 0)
}

// rootColumn fills the DP column at a trie root: dp[i][0] = cost of
// deleting the first i MaskOut tokens. The sweep and the dive both start
// here.
func (s *searcher) rootColumn(col []int32) {
	col[0] = 0
	for i := 1; i <= len(s.q); i++ {
		col[i] = col[i-1] + s.qw[i-1]
	}
}

// dead is what a row outside a column's band reads as: fence writes it
// just outside the parent's band, so stepInto reads every row of its range
// with no range check. It is above every bounded limit, which is a real
// distance, so a value derived from it never reads as live; and it is far
// enough below math.MaxInt32 that the costs an alignment path adds to it
// cannot overflow. Under an unbounded limit every band is full width, so no
// row is ever fenced then.
const dead int32 = math.MaxInt32 / 2

// fence marks the rows just outside col's band [lo, hi] dead. The callers
// of stepInto fence a parent column once, before stepping its children.
func fence(col []int32, lo, hi int) {
	if lo > 0 {
		col[lo-1] = dead
	}
	if hi+1 < len(col) {
		col[hi+1] = dead
	}
}

// stepInto advances the DP one column for trie token tok into cur
// (Algorithm 1): row 0 inserts tok; row i matches q[i-1] diagonally or
// takes the cheaper of deleting q[i-1] (cost qw) or inserting tok (cost
// W(tok)). rem is the number of structure tokens below the new column's
// node.
//
// Row i of a column is live when its cell bound cur[i] + gap[rem+i] is
// below limit: Proposition 1 at the cell. An alignment path through cell i
// still has m−i query and rem structure tokens to consume, and at least
// |(m−i) − rem| of them go unmatched, at W_L or more each. stepInto
// computes only the rows that can be live. prev's live rows lie in its band
// [lo, hi], and its rows lo−1 and hi+1, where they exist, hold dead
// (fence). A match keeps a cell's bound, and an insertion or a deletion
// adds at least W_L while moving the gap by exactly W_L (by 0 under
// DisableBDB), so the bound never falls along an alignment path: a live
// cell's best predecessor is live, and a dead cell feeds only dead ones.
// So rows lo to hi+1 are computed from prev, and the rows past hi+1 by
// deletion alone, up to the first dead one. Every live row holds its
// full-column value; a dead row inside the band holds at least its own.
// limit must be at most the one prev was stepped at.
//
// It returns cur's band (chi < 0 when no row is live) and the node bound
// visitFlat prunes on: the least cell bound of cur's live rows, or a value
// at least limit when it has none. That is Proposition 1 applied at the
// node, since every leaf below sits exactly rem tokens deeper (a trie holds
// structures of one length), and it equals the full column's
// min_i(cur[i] + gap[rem+i]) whenever that is below limit.
func (s *searcher) stepInto(prev, cur []int32, lo, hi int, tok tokenID, rem int, limit int32) (bound int32, clo, chi int) {
	w := s.w[tok]
	m := len(s.q)
	q, qw := s.q, s.qw
	gap := s.gap[rem : rem+m+1]
	bound, chi = dead, -1
	i := lo
	v := dead // cur's row lo−1, outside the band
	if i == 0 {
		v = prev[0] + w
		cur[0] = v
		if bound = v + gap[0]; bound < limit {
			chi = 0
		}
		i = 1
	}
	// Rows up to hi+1, resliced to one length so the loop indexes them
	// without bounds checks.
	pv := prev[:min(hi+2, m+1)]
	cv, gv := cur[:len(pv)], gap[:len(pv)]
	qv, qwv := q[:len(pv)-1], qw[:len(pv)-1]
	for ; i < len(cv); i++ {
		if qv[i-1] == tok {
			v = pv[i-1]
		} else {
			// Insert the trie token (advance column only) or delete the
			// query token (advance row only).
			v = min(pv[i]+w, v+qwv[i-1])
		}
		cv[i] = v
		b := v + gv[i]
		bound = min(bound, b)
		if b < limit {
			chi = i
		}
	}
	// Past hi+1 both prev rows that feed a row are dead, so a row is live
	// only through a deletion from a live row above it: the first dead row
	// ends the band.
	for ; i <= m; i++ {
		v += qw[i-1]
		b := v + gap[i]
		if b >= limit {
			break
		}
		cur[i] = v
		bound = min(bound, b)
		chi = i
	}
	clo = lo
	for clo <= chi && cur[clo]+gap[clo] >= limit {
		clo++
	}
	return bound, clo, chi
}

// primeGroup classifies a token into the prime superset groups of DAP:
// 0 = aggregate ops, 1 = connectives, 2 = comparison ops; −1 otherwise.
func primeGroup(tok string) int {
	switch tok {
	case "AVG", "COUNT", "SUM", "MAX", "MIN":
		return 0
	case "AND", "OR":
		return 1
	case "=", "<", ">":
		return 2
	}
	return -1
}

// maxINVList bounds the inverted list size INV will scan flat; larger lists
// fall back to trie search.
const maxINVList = 25000

// searchINV runs the inverted-index fast path: if the query contains any
// indexed keyword, scan only the structures listed under the rarest such
// keyword. Returns false if no indexed keyword is present (caller falls
// back to trie search).
func (s *searcher) searchINV() bool {
	var bestList [][]tokenID
	found := false
	for _, id := range s.q {
		if id == unknownID || !s.ix.invKey[id] {
			continue
		}
		list, ok := s.ix.inv[id]
		if !ok {
			continue
		}
		if !found || len(list) < len(bestList) {
			bestList = list
			found = true
		}
	}
	if !found {
		return false
	}
	// A huge inverted list (AND/OR appear in most predicates) buys nothing
	// over the prefix-sharing trie; scanning it flat would be slower than
	// the search it is meant to shortcut. Fall back to trie search then —
	// INV only wins when the keyword is selective, which is the paper's
	// premise for it.
	if len(bestList) > maxINVList {
		return false
	}
	// Scan in order of increasing length difference from the query: the
	// Proposition 1 lower bound then lets the whole remaining scan stop as
	// soon as both frontiers are out of range — the flat-list analogue of
	// BDB. Lists are length-sorted by sortInv. The split search is
	// hand-rolled (not sort.Search) to keep the kernel closure-free and so
	// allocation-free.
	m := len(s.q)
	lo, hi := 0, len(bestList)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if len(bestList[mid]) < m {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	loIdx, hiIdx := lo-1, lo
	loAlive, hiAlive := loIdx >= 0, hiIdx < len(bestList)
	for loAlive || hiAlive {
		// Advance the frontier closer in length to the query first.
		useHi := hiAlive
		if loAlive && hiAlive {
			useHi = len(bestList[hiIdx])-m <= m-len(bestList[loIdx])
		}
		if useHi {
			if !s.invScan(bestList[hiIdx]) {
				hiAlive = false
			} else if hiIdx++; hiIdx >= len(bestList) {
				hiAlive = false
			}
		} else {
			if !s.invScan(bestList[loIdx]) {
				loAlive = false
			} else if loIdx--; loIdx < 0 {
				loAlive = false
			}
		}
	}
	return true
}

// invScan scores one inverted-list structure, reporting false once the
// Proposition 1 bound proves this scan direction exhausted.
func (s *searcher) invScan(structIDs []tokenID) bool {
	if lengthGap(len(structIDs), len(s.q)) >= s.threshold() {
		return false
	}
	s.st.InvScanned++
	d := s.flatDistance(structIDs, s.threshold())
	if d < s.threshold() {
		s.offer(d, structIDs)
	}
	return true
}

// flatDistance computes the weighted edit distance between the query and one
// flat structure (the INV path), abandoning early once every cell of a row
// exceeds limit (the distance is then provably ≥ limit). Rows come from the
// searcher's scratch, not the heap.
func (s *searcher) flatDistance(b []tokenID, limit int32) int32 {
	need := len(b) + 1
	if cap(s.fPrev) < need {
		s.fPrev = make([]int32, need)
		s.fCur = make([]int32, need)
	}
	prev, cur := s.fPrev[:need], s.fCur[:need]
	prev[0] = 0
	for j := 1; j <= len(b); j++ {
		prev[j] = prev[j-1] + s.w[b[j-1]]
	}
	for i := 1; i <= len(s.q); i++ {
		cur[0] = prev[0] + s.qw[i-1]
		rowMin := cur[0]
		for j := 1; j <= len(b); j++ {
			if s.q[i-1] == b[j-1] {
				cur[j] = prev[j-1]
			} else {
				cur[j] = min(prev[j]+s.qw[i-1], cur[j-1]+s.w[b[j-1]])
			}
			rowMin = min(rowMin, cur[j])
		}
		if rowMin >= limit {
			return rowMin // can only grow from here
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// heapEntry and resultHeap implement a small worst-first binary heap for
// top-k maintenance. Entries are totally ordered by (distance, offer
// sequence): distance ties resolve to the earliest-enumerated candidate.
type heapEntry struct {
	dist int32
	seq  uint64
	toks []tokenID
}

// worse reports whether e loses to o: strictly greater distance, or an
// equal distance with a later enumeration position.
func (e heapEntry) worse(o heapEntry) bool {
	if e.dist != o.dist {
		return e.dist > o.dist
	}
	return e.seq > o.seq
}

type resultHeap []heapEntry

func (h *resultHeap) push(e heapEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h)[i].worse((*h)[p]) {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h *resultHeap) popWorst() heapEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && (*h)[l].worse((*h)[big]) {
			big = l
		}
		if r < n && (*h)[r].worse((*h)[big]) {
			big = r
		}
		if big == i {
			break
		}
		(*h)[i], (*h)[big] = (*h)[big], (*h)[i]
		i = big
	}
	return top
}
