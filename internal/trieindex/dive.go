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
// the node, see stepInto), and its DP column with the column's band.
type beamNode struct {
	ni     int32
	bound  int32
	lo, hi int
	col    []int32
}

// dive runs the warm-start beam and sets s.seed to the k-th smallest leaf
// distance it recorded, or unbounded when it recorded fewer than k. Tries are
// taken in order of increasing length gap |m−n|: n = m, then m−1 and m+1,
// and so on. The dive stops once it holds k leaves and the next gap's
// gap·W_L is at least the k-th smallest of them: no leaf of a trie at that
// gap can lower the seed. ctx is checked between tries, as in the sweep.
func (s *searcher) dive(ctx context.Context) {
	s.diveBest = s.diveBest[:0]
	m := len(s.q)
	for g := 0; m-g >= 1 || m+g <= s.ix.maxLen; g++ {
		if lengthGap(m+g, m) >= s.diveLimit() || ctx.Err() != nil {
			break
		}
		s.diveLen(m - g)
		if g > 0 {
			s.diveLen(m + g)
		}
	}
	s.seed = s.diveLimit()
}

// diveLimit is the k-th smallest leaf distance the dive has recorded, or
// unbounded while it holds fewer than k. No leaf at or above it can lower
// the seed.
func (s *searcher) diveLimit() int32 {
	if len(s.diveBest) < s.k {
		return unbounded
	}
	return s.diveBest[s.k-1]
}

// diveLen runs the beam down the trie of length n, if there is one. Each
// level steps every child of every beam node and keeps the k children with
// the lowest node bound; at the last level every child is a leaf, and its
// distance col[m] is recorded. Columns are banded at diveLimit, read once
// per beam node (stepInto), and a child whose node bound reaches it is
// dropped: no leaf below it can enter the k smallest. Every child below the
// limit has its full-column bound, and a dropped child could only have
// taken a beam slot that no child below the limit wanted, so the beam's
// nodes below the limit, and with them the seed, are those of full
// columns. Each column goes back on the free stack when its node leaves
// the beam.
func (s *searcher) diveLen(n int) {
	if n < 1 || n > s.ix.maxLen || s.ix.tries[n] == nil {
		return
	}
	tr := s.ix.tries[n]
	m := len(s.q)
	root := s.popColumn()
	s.rootColumn(root)
	cur := append(s.beamCur[:0], beamNode{hi: m, col: root})
	next := s.beamNext[:0]
	for depth := 0; depth < n && len(cur) > 0; depth++ {
		rem := n - depth - 1 // structure tokens below each child
		for _, p := range cur {
			limit := s.diveLimit()
			fence(p.col, p.lo, p.hi)
			for ci := tr.first[p.ni]; ci < tr.first[p.ni+1]; ci++ {
				col := s.popColumn()
				bound, lo, hi := s.stepInto(p.col, col, p.lo, p.hi, tr.tok[ci], rem, limit)
				s.st.DiveSteps++
				switch {
				case bound >= limit:
					s.diveFree = append(s.diveFree, col)
				case rem > 0:
					next = s.keepBeam(next, beamNode{ni: ci, bound: bound, lo: lo, hi: hi, col: col})
				default:
					if hi == m {
						s.recordLeaf(col[m])
					}
					s.diveFree = append(s.diveFree, col)
				}
			}
		}
		for _, p := range cur {
			s.diveFree = append(s.diveFree, p.col)
		}
		cur, next = next, cur[:0]
	}
	s.beamCur, s.beamNext = cur, next
}

// popColumn takes a DP column off the beam's free stack, sized for the
// current query. The stack grows only when it is empty, so a search holds
// as many columns as its beam levels do at once, however large k is.
func (s *searcher) popColumn() []int32 {
	need := len(s.q) + 1
	n := len(s.diveFree) - 1
	if n < 0 {
		return make([]int32, need)
	}
	col := s.diveFree[n]
	s.diveFree = s.diveFree[:n]
	if cap(col) < need {
		col = make([]int32, need)
	}
	return col[:need]
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
