package trieindex

import (
	"math"
	"testing"

	"speakql/internal/grammar"
	"speakql/internal/sqltoken"
)

// The pointer-trie DP kernel: the pre-arena search kernel, kept here as the
// reference the arena kernel is differentially tested against
// (TestArenaMatchesPointer). It walks the Builder's pointer tries, which
// Build otherwise drops, and allocates one column per node visit.

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

// searchPointer is SearchTopK on the pointer kernel over roots: the INV fast
// path (which scans the inverted lists, not the tries), then the
// bidirectional partition sweep. Partitions are always searched serially:
// the parallel sweep returns results bit-identical to the serial one
// (TestParallelMatchesSerial), so its results must equal these too.
func (ix *Index) searchPointer(roots []*node, maskOut []string, k int, opts Options) ([]Result, Stats) {
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
	for _, n := range s.partitionOrder(len(s.q)) {
		s.searchLenPointer(roots[n], n)
	}
	return s.results(), st
}

// searchLenPointer is searchLen over one pointer trie: the same BDB skip and
// root column, then the pointer kernel.
func (s *searcher) searchLenPointer(root *node, n int) {
	if root == nil {
		return
	}
	if !s.opts.DisableBDB {
		lower := math.Abs(float64(len(s.q)-n)) * sqltoken.WeightLiteral
		if !s.viable(lower) {
			s.st.TriesSkipped++
			return
		}
	}
	s.st.TriesSearched++
	col := make([]float64, len(s.q)+1)
	for i := 1; i <= len(s.q); i++ {
		col[i] = col[i-1] + s.qw[i-1]
	}
	s.path = s.path[:0]
	s.descend(root, col)
}

// descend explores node's children, advancing the DP by one column per
// child token, with min-column pruning and (optionally) DAP.
func (s *searcher) descend(n *node, col []float64) {
	if !s.opts.DAP || len(n.children) < 2 {
		for _, c := range n.children {
			childCol := s.step(col, c.tok)
			s.visit(c, childCol)
		}
		return
	}
	// DAP: non-prime children are explored normally; within each prime-
	// superset group only the child whose DP column ends lowest is
	// explored further.
	var bestChild [3]*node
	var bestCol [3][]float64
	for _, c := range n.children {
		g := s.ix.prime[c.tok]
		if g < 0 {
			s.visit(c, s.step(col, c.tok))
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
			s.visit(bestChild[g], bestCol[g])
		}
	}
}

func (s *searcher) visit(c *node, col []float64) {
	s.st.NodesVisited++
	s.path = append(s.path, c.tok)
	if c.leaf {
		if d := col[len(col)-1]; s.viable(d) {
			s.offer(d, s.path)
		}
	}
	// Min-column pruning: every descendant's distance is ≥ min(col).
	if s.viable(minOf(col)) {
		s.descend(c, col)
	}
	s.path = s.path[:len(s.path)-1]
}

// step advances the DP one column for trie token tok into a fresh column.
func (s *searcher) step(prev []float64, tok tokenID) []float64 {
	cur := make([]float64, len(prev))
	s.stepInto(prev, cur, tok)
	return cur
}

func last(col []float64) float64 { return col[len(col)-1] }

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
	for _, tr := range ix.tries {
		if tr != nil {
			tr.flat.walkLeaves(&path, fn)
		}
	}
}
