package trieindex

import (
	"context"
	"strings"
	"testing"

	"speakql/internal/grammar"
)

// The pointer-trie DP kernel: the pre-arena search kernel, kept here as the
// reference the arena kernel is differentially tested against
// (TestArenaMatchesPointer). It walks the Builder's pointer tries, which
// Build otherwise drops, and allocates one column per node visit. Unseeded,
// it prunes a node's subtree on min(col) alone, the rule results are checked
// against; with nodeBound set it also applies Proposition 1 at every node,
// computed here straight from the definition, and seeded it starts from the
// arena kernel's warm-start seed, which together reproduce the arena
// kernel's visits exactly.

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
// the min(col) prune. seeded runs the arena kernel's warm-start dive before
// the sweep, outside DAP as SearchTopK does, so the sweep prunes on the
// same seed and the dive's steps land in Stats; unseeded, the sweep starts
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
		s.dive(context.Background())
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
// (the rem argument only feeds stepInto's bound, which step discards).
func (s *searcher) step(prev []int32, tok tokenID) []int32 {
	cur := make([]int32, len(prev))
	s.stepInto(prev, cur, tok, 0)
	return cur
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
