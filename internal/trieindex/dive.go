package trieindex

// The warm start. A search prunes each trie against the k-th best found so
// far, so most of its work happens before that bound tightens. Before the
// partition sweep, every search except DAP therefore runs a beam of width k
// from the roots of the tries nearest the query's length down to real
// leaves, and seeds the sweep's pruning with the k-th smallest leaf
// distance it recorded.
//
// The seed is sound. Each recorded value is the exact distance of a
// distinct structure, so the k-th smallest of k such values is at least
// the true k-th best. The seed prunes only d > seed (viable keeps
// d <= seed), so every top-k member survives in enumeration order and the
// (distance, seq) rule picks the identical list: only the work falls.
//
// DAP is excluded: its sweep never enters a losing prime-group child, but
// the dive may, and a leaf found there can lie below DAP's own k-th best.

import "context"

// beamNode is one beam entry: a trie node, its node bound (Proposition 1 at
// the node, see stepInto), and its DP column.
type beamNode struct {
	ni    int32
	bound int32
	col   []int32
}

// dive runs the warm-start beam and sets s.seed to the k-th smallest leaf
// distance it recorded, or unbounded when it recorded fewer than k. Tries are
// taken in order of increasing length gap |m−n|: n = m, then m−1 and m+1,
// and so on. The dive stops once it holds k leaves and the next gap's
// gap·W_L is at least the k-th smallest of them: no leaf of a trie at that
// gap can lower the seed. ctx is checked between tries, as in the sweep.
func (s *searcher) dive(ctx context.Context) {
	s.prepareDive()
	m := len(s.q)
	for g := 0; m-g >= 1 || m+g <= s.ix.maxLen; g++ {
		if len(s.diveBest) >= s.k && lengthGap(m+g, m) >= s.diveBest[s.k-1] {
			break
		}
		if ctx.Err() != nil {
			break
		}
		s.diveLen(m - g)
		if g > 0 {
			s.diveLen(m + g)
		}
	}
	s.seed = unbounded
	if len(s.diveBest) >= s.k {
		s.seed = s.diveBest[s.k-1]
	}
}

// prepareDive clears the recorded leaves and sizes the beam's DP columns,
// at least 2k+1 of them, for the current query. Between tries every column
// is on the free stack, so the stack is their only home.
func (s *searcher) prepareDive() {
	s.diveBest = s.diveBest[:0]
	for len(s.diveFree) < 2*s.k+1 {
		s.diveFree = append(s.diveFree, nil)
	}
	need := len(s.q) + 1
	for i, col := range s.diveFree {
		if cap(col) < need {
			col = make([]int32, need)
		}
		s.diveFree[i] = col[:need]
	}
}

// diveLen runs the beam down the trie of length n, if there is one. Each
// level steps every child of every beam node and keeps the k children with
// the lowest node bound; at the last level every child is a leaf, and its
// distance col[m] is recorded. A level never holds more than k columns and
// the next one at most k, so with the one being stepped into 2k+1 columns
// always suffice, and each goes back on the free stack when its node leaves
// the beam.
func (s *searcher) diveLen(n int) {
	if n < 1 || n > s.ix.maxLen || s.ix.tries[n] == nil {
		return
	}
	tr := s.ix.tries[n]
	root := s.popColumn()
	s.rootColumn(root)
	cur := append(s.beamCur[:0], beamNode{col: root})
	next := s.beamNext[:0]
	for depth := 0; depth < n && len(cur) > 0; depth++ {
		rem := n - depth - 1 // structure tokens below each child
		for _, p := range cur {
			for ci := tr.first[p.ni]; ci < tr.first[p.ni+1]; ci++ {
				col := s.popColumn()
				bound := s.stepInto(p.col, col, tr.tok[ci], rem)
				s.st.DiveSteps++
				if rem > 0 {
					next = s.keepBeam(next, beamNode{ni: ci, bound: bound, col: col})
					continue
				}
				s.recordLeaf(col[len(col)-1])
				s.diveFree = append(s.diveFree, col)
			}
		}
		for _, p := range cur {
			s.diveFree = append(s.diveFree, p.col)
		}
		cur, next = next, cur[:0]
	}
	s.beamCur, s.beamNext = cur, next
}

// popColumn takes a DP column off the beam's free stack.
func (s *searcher) popColumn() []int32 {
	n := len(s.diveFree) - 1
	col := s.diveFree[n]
	s.diveFree = s.diveFree[:n]
	return col
}

// keepBeam adds e to the next beam level, which is kept sorted by node
// bound and capped at k entries. On a tie the entry enumerated first wins;
// the column of an entry that falls off the end goes back on the free
// stack.
func (s *searcher) keepBeam(next []beamNode, e beamNode) []beamNode {
	if len(next) >= s.k {
		last := next[s.k-1]
		if e.bound >= last.bound {
			s.diveFree = append(s.diveFree, e.col)
			return next
		}
		s.diveFree = append(s.diveFree, last.col)
		next = next[:s.k-1]
	}
	i := len(next)
	next = append(next, e)
	for ; i > 0 && next[i-1].bound > e.bound; i-- {
		next[i] = next[i-1]
	}
	next[i] = e
	return next
}

// recordLeaf adds one leaf distance to the dive's k smallest, kept sorted.
func (s *searcher) recordLeaf(d int32) {
	best := s.diveBest
	if len(best) >= s.k {
		if d >= best[s.k-1] {
			return
		}
		best = best[:s.k-1]
	}
	i := len(best)
	best = append(best, d)
	for ; i > 0 && best[i-1] > d; i-- {
		best[i] = best[i-1]
	}
	best[i] = d
	s.diveBest = best
}
