// Arena-flattened tries. The pointer trie the Builder grows is a build-time
// structure: 2.7M separately-allocated nodes at default scale, each child
// visit a pointer chase into a cold cache line, and the whole graph a
// standing GC workload. Build compacts each per-length trie into two
// contiguous arrays — each node's token, and the offset of its first child
// — which the DP search kernel then walks by index. Children are laid out
// breadth-first, so each node's children are contiguous and keep the
// pointer trie's sorted order, and node i's child range ends where node
// i+1's begins. A trie holds structures of exactly n tokens, so a node is a
// leaf exactly when it lies at depth n; no flag records it. Depth-first
// traversal order (and with it result enumeration order and every sweep
// Stats counter) is bit-identical to a walk of the pointer trie — the
// pointer kernel kept in the tests as the reference
// (TestArenaMatchesPointer).
package trieindex

// flatten fills tr's arrays from a pointer trie with a breadth-first
// layout: children are appended in the order their parents are processed,
// which makes every child range contiguous and first[] a running prefix sum
// of the child counts.
func (tr *trie) flatten(root *node) {
	n := 1 + countNodes(root)
	tr.tok = make([]tokenID, n)
	tr.first = make([]int32, n+1)
	queue := make([]*node, 1, n)
	queue[0] = root
	next := int32(1)
	for i := 0; i < len(queue); i++ {
		nd := queue[i]
		tr.tok[i] = nd.tok
		tr.first[i] = next
		next += int32(len(nd.children))
		queue = append(queue, nd.children...)
	}
	tr.first[n] = next
}

// --- arena DP kernel ---
//
// The search kernel proper. It visits nodes by index range instead of
// pointer chase, and every DP column comes from the searcher's per-depth
// column pool instead of a fresh heap allocation — zero steady-state
// allocations per query (pinned by TestSearchKernelSteadyStateAllocs).
// Each column computes only its band of live rows (stepInto). Traversal
// order, pruning decisions, offers, and the sweep's Stats counters are
// bit-identical to the pointer-trie reference kernel in the tests, which
// fills every row; only the dive's DiveSteps are fewer.

// descendFlat explores node ni's children. col is the DP column at ni
// (always s.cols[depth]) and [lo, hi] its band; each child's column is
// advanced into the pooled buffer for depth+1, which siblings overwrite in
// turn. The band limit is read once per parent: offers in a child's
// subtree may tighten it, and a looser limit only computes more rows.
func (s *searcher) descendFlat(tr *trie, ni int32, col []int32, lo, hi, depth int) {
	first, end := tr.first[ni], tr.first[ni+1]
	rem := s.n - depth - 1 // structure tokens below each child
	// DAP keeps full columns (an unbounded limit): its prime-group choice
	// reads the last row of a column whose node it may never enter, a row
	// that can be dead.
	limit := unbounded
	if !s.opts.DAP {
		limit = s.limit()
	}
	fence(col, lo, hi)
	child := s.column(depth + 1)
	if !s.opts.DAP || end-first < 2 {
		for ci := first; ci < end; ci++ {
			bound, clo, chi := s.stepInto(col, child, lo, hi, tr.tok[ci], rem, limit)
			s.visitFlat(tr, ci, child, clo, chi, depth+1, bound)
		}
		return
	}
	// DAP runs two passes so prime-group columns never need to outlive the
	// child loop: pass 1 scores every prime child's column into one scratch
	// buffer (only its last cell matters for the winner choice) while
	// exploring non-prime children in place; pass 2 recomputes the winners'
	// columns into the depth buffer and explores them, in group order —
	// the reference kernel's exact visit order.
	bestChild := [3]int32{-1, -1, -1}
	var bestLast [3]int32
	for ci := first; ci < end; ci++ {
		tok := tr.tok[ci]
		if g := s.ix.prime[tok]; g >= 0 {
			scratch := s.dapColumn()
			s.stepInto(col, scratch, lo, hi, tok, rem, limit)
			if l := scratch[len(scratch)-1]; bestChild[g] < 0 || l < bestLast[g] {
				bestChild[g], bestLast[g] = ci, l
			}
			continue
		}
		bound, clo, chi := s.stepInto(col, child, lo, hi, tok, rem, limit)
		s.visitFlat(tr, ci, child, clo, chi, depth+1, bound)
	}
	for g := range bestChild {
		if ci := bestChild[g]; ci >= 0 {
			bound, clo, chi := s.stepInto(col, child, lo, hi, tr.tok[ci], rem, limit)
			s.visitFlat(tr, ci, child, clo, chi, depth+1, bound)
		}
	}
}

// visitFlat counts node ci, offers it if it is a leaf (it lies at depth
// s.n) whose last row is live, and descends unless no descendant can be
// viable: every leaf below costs at least bound, stepInto's node bound for
// col, whose band is [lo, hi].
func (s *searcher) visitFlat(tr *trie, ci int32, col []int32, lo, hi, depth int, bound int32) {
	s.st.NodesVisited++
	s.path = append(s.path, tr.tok[ci])
	if depth == s.n && hi == len(s.q) {
		if d := col[hi]; s.viable(d) {
			s.offer(d, s.path)
		}
	}
	if s.viable(bound) {
		s.descendFlat(tr, ci, col, lo, hi, depth)
	}
	s.path = s.path[:len(s.path)-1]
}
