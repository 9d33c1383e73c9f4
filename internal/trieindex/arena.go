// Arena-flattened tries. The pointer trie the Builder grows is a build-time
// structure: 2.7M separately-allocated nodes at default scale, each child
// visit a pointer chase into a cold cache line, and the whole graph a
// standing GC workload. Build compacts each per-length trie into a
// struct-of-arrays arena — token, leaf flag, and a [firstChild, childCount)
// index range per node, all in four contiguous slices — which the DP search
// kernel then walks by index. Children are laid out breadth-first, so each
// node's children are contiguous and keep the pointer trie's sorted order;
// depth-first traversal order (and with it result enumeration order and
// every Stats counter) is bit-identical to a walk of the pointer trie — the
// pointer kernel kept in the tests as the reference (TestArenaMatchesPointer).
package trieindex

// flatTrie is one per-length trie in arena form. Node 0 is the root (its
// tok and leaf entries are unused); node i's children are the index range
// [first[i], first[i]+num[i]) of the same arrays, sorted by token id.
type flatTrie struct {
	tok   []tokenID
	leaf  []bool
	first []int32
	num   []int32
}

// flatten compacts a pointer trie into its arena form with a breadth-first
// layout: children are appended to the arrays in the order their parents
// are processed, which makes every child range contiguous and first[] a
// running prefix sum of num[].
func flatten(root *node) *flatTrie {
	n := 1 + countNodes(root)
	ft := &flatTrie{
		tok:   make([]tokenID, n),
		leaf:  make([]bool, n),
		first: make([]int32, n),
		num:   make([]int32, n),
	}
	queue := make([]*node, 1, n)
	queue[0] = root
	next := int32(1)
	for i := 0; i < len(queue); i++ {
		nd := queue[i]
		ft.tok[i] = nd.tok
		ft.leaf[i] = nd.leaf
		ft.first[i] = next
		ft.num[i] = int32(len(nd.children))
		next += int32(len(nd.children))
		queue = append(queue, nd.children...)
	}
	return ft
}

// walkLeaves calls fn with the root→leaf path of every structure in the
// arena, in depth-first order. The path slice is reused between calls; fn
// must copy it to retain it.
func (ft *flatTrie) walkLeaves(path *[]tokenID, fn func(path []tokenID)) {
	ft.walkFrom(0, path, fn)
}

func (ft *flatTrie) walkFrom(ni int32, path *[]tokenID, fn func(path []tokenID)) {
	for ci := ft.first[ni]; ci < ft.first[ni]+ft.num[ni]; ci++ {
		*path = append(*path, ft.tok[ci])
		if ft.leaf[ci] {
			fn(*path)
		}
		ft.walkFrom(ci, path, fn)
		*path = (*path)[:len(*path)-1]
	}
}

// --- arena DP kernel ---
//
// The search kernel proper. It visits nodes by index range instead of
// pointer chase, and every DP column comes from the searcher's per-depth
// column pool instead of a fresh heap allocation — zero steady-state
// allocations per query (pinned by TestSearchKernelSteadyStateAllocs).
// Traversal order, pruning decisions, offers, and Stats counters are
// bit-identical to the pointer-trie reference kernel in the tests.

// descendFlat explores node ni's children. col is the DP column at ni
// (always s.cols[depth]); each child's column is advanced into the pooled
// buffer for depth+1, which siblings overwrite in turn.
func (s *searcher) descendFlat(ft *flatTrie, ni int32, col []int32, depth int) {
	first, cnt := ft.first[ni], ft.num[ni]
	rem := s.n - depth - 1 // structure tokens below each child
	if !s.opts.DAP || cnt < 2 {
		for ci := first; ci < first+cnt; ci++ {
			child := s.column(depth + 1)
			s.visitFlat(ft, ci, child, depth+1, s.stepInto(col, child, ft.tok[ci], rem))
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
	for ci := first; ci < first+cnt; ci++ {
		tok := ft.tok[ci]
		if g := s.ix.prime[tok]; g >= 0 {
			scratch := s.dapColumn()
			s.stepInto(col, scratch, tok, rem)
			if l := scratch[len(scratch)-1]; bestChild[g] < 0 || l < bestLast[g] {
				bestChild[g], bestLast[g] = ci, l
			}
			continue
		}
		child := s.column(depth + 1)
		s.visitFlat(ft, ci, child, depth+1, s.stepInto(col, child, tok, rem))
	}
	for g := range bestChild {
		if ci := bestChild[g]; ci >= 0 {
			child := s.column(depth + 1)
			s.visitFlat(ft, ci, child, depth+1, s.stepInto(col, child, ft.tok[ci], rem))
		}
	}
}

// visitFlat counts node ci, offers it if it is a leaf, and descends unless
// no descendant can be viable: every leaf below costs at least bound,
// stepInto's node bound for col.
func (s *searcher) visitFlat(ft *flatTrie, ci int32, col []int32, depth int, bound int32) {
	s.st.NodesVisited++
	s.path = append(s.path, ft.tok[ci])
	if ft.leaf[ci] {
		if d := col[len(col)-1]; s.viable(d) {
			s.offer(d, s.path)
		}
	}
	if s.viable(bound) {
		s.descendFlat(ft, ci, col, depth)
	}
	s.path = s.path[:len(s.path)-1]
}
