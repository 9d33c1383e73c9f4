package trieindex

import (
	"sort"
	"strings"
	"testing"

	"speakql/internal/grammar"
)

// The pointer-trie DP kernel: the pre-arena search kernel, kept here as the
// reference the arena kernel is differentially tested against
// (TestArenaMatchesPointer). It walks the Builder's pointer tries, which
// Build otherwise drops, allocates one column per node visit, and fills
// every row of it (fullStep, the full-column kernel). Unseeded, it prunes a
// node's subtree on min(col) alone, the rule results are checked against;
// with nodeBound set it also applies Proposition 1 at every node, computed
// here straight from the definition, and seeded it first runs its own copy
// of the warm-start dive (referenceDive), which together reproduce the arena
// kernel's sweep exactly. None of it calls the shipped column kernel or
// dive.

// buildWithPointers builds an index over cfg's corpus and also returns the
// builder's pointer tries (indexed by structure length).
func buildWithPointers(t testing.TB, cfg grammar.GenConfig, keepINV bool) (*Index, []*node) {
	t.Helper()
	b := NewBuilder(cfg.MaxTokens, keepINV)
	err := grammar.Generate(cfg, func(toks []string) bool {
		b.Insert(toks)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	roots := append([]*node(nil), b.roots...) // Build drops its own copies
	return b.Build(), roots
}

// indexWithPointers builds a small index from space-separated structures,
// keeping the inverted lists, and also returns the builder's pointer tries.
func indexWithPointers(maxLen int, structures ...string) (*Index, []*node) {
	b := NewBuilder(maxLen, true)
	for _, s := range structures {
		b.Insert(strings.Fields(s))
	}
	roots := append([]*node(nil), b.roots...)
	return b.Build(), roots
}

// searchPointer is SearchTopK on the pointer kernel over roots: the INV fast
// path (which scans the inverted lists, not the tries), then the
// bidirectional partition sweep. nodeBound adds the per-node length bound to
// the min(col) prune. seeded runs referenceDive before the sweep, outside
// DAP as SearchTopK does, so the sweep prunes on the seed of full columns
// and the reference dive's steps land in Stats; unseeded, the sweep starts
// from +Inf, which is the rule results are checked against.
func (ix *Index) searchPointer(roots []*node, maskOut []string, k int, opts Options, nodeBound, seeded bool) ([]Result, Stats) {
	var st Stats
	if k <= 0 || ix.total == 0 {
		return nil, st
	}
	s := ix.getSearcher(maskOut, k, opts, &st)
	defer ix.putSearcher(s)
	if opts.INV && s.searchINV() {
		st.UsedINV = true
		return s.results(), st
	}
	if seeded && !opts.DAP {
		s.referenceDive()
	}
	for _, n := range s.partitionOrder(len(s.q)) {
		s.searchLenPointer(roots[n], n, nodeBound)
	}
	return s.results(), st
}

// searchLenPointer is searchLen over one pointer trie: the same BDB skip and
// root column, then the pointer kernel.
func (s *searcher) searchLenPointer(root *node, n int, nodeBound bool) {
	if root == nil {
		return
	}
	if !s.opts.DisableBDB && !s.viable(lengthGap(len(s.q), n)) {
		s.st.TriesSkipped++
		return
	}
	s.st.TriesSearched++
	col := make([]int32, len(s.q)+1)
	for i := 1; i <= len(s.q); i++ {
		col[i] = col[i-1] + s.qw[i-1]
	}
	s.path = s.path[:0]
	s.descend(root, col, n, nodeBound)
}

// descend explores node's children, advancing the DP by one column per
// child token, with min-column pruning and (optionally) DAP. n is the
// trie's structure length.
func (s *searcher) descend(nd *node, col []int32, n int, nodeBound bool) {
	if !s.opts.DAP || len(nd.children) < 2 {
		for _, c := range nd.children {
			childCol := s.step(col, c.tok)
			s.visit(c, childCol, n, nodeBound)
		}
		return
	}
	// DAP: non-prime children are explored normally; within each prime-
	// superset group only the child whose DP column ends lowest is
	// explored further.
	var bestChild [3]*node
	var bestCol [3][]int32
	for _, c := range nd.children {
		g := s.ix.prime[c.tok]
		if g < 0 {
			s.visit(c, s.step(col, c.tok), n, nodeBound)
			continue
		}
		cc := s.step(col, c.tok)
		if bestChild[g] == nil || last(cc) < last(bestCol[g]) {
			bestChild[g] = c
			bestCol[g] = cc
		}
	}
	for g := range bestChild {
		if bestChild[g] != nil {
			s.visit(bestChild[g], bestCol[g], n, nodeBound)
		}
	}
}

func (s *searcher) visit(c *node, col []int32, n int, nodeBound bool) {
	s.st.NodesVisited++
	s.path = append(s.path, c.tok)
	if c.leaf {
		if d := col[len(col)-1]; s.viable(d) {
			s.offer(d, s.path)
		}
	}
	// Min-column pruning: every descendant's distance is ≥ min(col), and
	// at least the node bound, which is never below min(col).
	lower := minOf(col)
	if nodeBound && !s.opts.DisableBDB {
		lower = nodeBoundOf(col, n-len(s.path))
	}
	if s.viable(lower) {
		s.descend(c, col, n, nodeBound)
	}
	s.path = s.path[:len(s.path)-1]
}

// step advances the DP one column for trie token tok into a fresh column
// (the rem argument only feeds fullStep's bound, which step discards).
func (s *searcher) step(prev []int32, tok tokenID) []int32 {
	cur := make([]int32, len(prev))
	s.fullStep(prev, cur, tok, 0)
	return cur
}

// fullStep is the full-column kernel, stepInto without bands: it fills
// every row of cur (a column of prev's length) from prev for trie token
// tok, and returns the node bound min_i(cur[i] + gap[rem+i]) over all of
// them, rem being the structure tokens below the new column's node.
func (s *searcher) fullStep(prev, cur []int32, tok tokenID, rem int) int32 {
	w := s.w[tok]
	q, qw := s.q[:len(prev)-1], s.qw[:len(prev)-1]
	cur = cur[:len(prev)]
	gap := s.gap[rem : rem+len(prev)]
	v := prev[0] + w
	cur[0] = v
	bound := v + gap[0]
	for i := 1; i < len(cur); i++ {
		if q[i-1] == tok {
			v = prev[i-1]
		} else {
			v = min(prev[i]+w, v+qw[i-1])
		}
		cur[i] = v
		if b := v + gap[i]; b < bound {
			bound = b
		}
	}
	return bound
}

// referenceDive is the warm-start dive over full columns: a beam of the k
// children with the lowest node bound per level (ties to the child stepped
// first), full columns stepped by fullStep, every child kept in the running
// whatever its bound, and every leaf of the last level recorded. Tries are
// taken by increasing length gap until k leaves are held and the next gap's
// gap·W_L reaches the k-th smallest. It sets s.seed to that k-th smallest,
// or unbounded, and counts its steps in DiveSteps.
func (s *searcher) referenceDive() {
	type entry struct {
		ni    int32
		bound int32
		col   []int32
	}
	m := len(s.q)
	var best []int32 // the k smallest leaf distances recorded, sorted
	kth := func() int32 {
		if len(best) < s.k {
			return unbounded
		}
		return best[s.k-1]
	}
	diveLen := func(n int) {
		if n < 1 || n > s.ix.maxLen || s.ix.tries[n] == nil {
			return
		}
		tr := s.ix.tries[n]
		root := make([]int32, m+1)
		for i := 1; i <= m; i++ {
			root[i] = root[i-1] + s.qw[i-1]
		}
		cur := []entry{{col: root}}
		for depth := 0; depth < n && len(cur) > 0; depth++ {
			rem := n - depth - 1
			var next []entry
			for _, p := range cur {
				for ci := tr.first[p.ni]; ci < tr.first[p.ni+1]; ci++ {
					col := make([]int32, m+1)
					bound := s.fullStep(p.col, col, tr.tok[ci], rem)
					s.st.DiveSteps++
					if rem > 0 {
						next = append(next, entry{ci, bound, col})
					} else {
						best = append(best, col[m])
					}
				}
			}
			sort.SliceStable(next, func(i, j int) bool { return next[i].bound < next[j].bound })
			cur = next[:min(len(next), s.k)]
		}
		sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
		best = best[:min(len(best), s.k)]
	}
	for g := 0; m-g >= 1 || m+g <= s.ix.maxLen; g++ {
		if lengthGap(m+g, m) >= kth() {
			break
		}
		diveLen(m - g)
		if g > 0 {
			diveLen(m + g)
		}
	}
	s.seed = kth()
}

func minOf(col []int32) int32 {
	m := col[0]
	for _, v := range col[1:] {
		m = min(m, v)
	}
	return m
}

// nodeBoundOf is Proposition 1 at a node with rem structure tokens below
// it: min over the column's cells of cell + |(m−i) − rem|·W_L.
func nodeBoundOf(col []int32, rem int) int32 {
	m := len(col) - 1
	b := unbounded
	for i, v := range col {
		b = min(b, v+lengthGap(m-i, rem))
	}
	return b
}

func last(col []int32) int32 { return col[len(col)-1] }

// pointerStats counts one pointer trie's structures and nodes (the root
// excluded), the figures Memory reports for its arena.
func pointerStats(n *node) LengthStats {
	var st LengthStats
	for _, c := range n.children {
		if c.leaf {
			st.Structures++
		}
		sub := pointerStats(c)
		st.Structures += sub.Structures
		st.Nodes += 1 + sub.Nodes
	}
	return st
}

// forEachStructure enumerates every indexed structure in trie-walk order
// (increasing length, then depth-first within each trie). The callback's
// slice is scratch; copy to retain.
func (ix *Index) forEachStructure(fn func(path []tokenID)) {
	path := make([]tokenID, 0, ix.maxLen)
	for n, tr := range ix.tries {
		if tr != nil {
			tr.walkLeaves(0, n, &path, fn)
		}
	}
}

// walkLeaves calls fn with the root→leaf path of every structure below
// node ni of tr, the length-n trie, in depth-first order; *path holds the
// root→ni path on entry, so a node is a leaf when the path reaches n
// tokens. The path slice is reused between calls; fn must copy it to
// retain it.
func (tr *trie) walkLeaves(ni int32, n int, path *[]tokenID, fn func(path []tokenID)) {
	for ci := tr.first[ni]; ci < tr.first[ni+1]; ci++ {
		*path = append(*path, tr.tok[ci])
		if len(*path) == n {
			fn(*path)
		}
		tr.walkLeaves(ci, n, path, fn)
		*path = (*path)[:len(*path)-1]
	}
}
