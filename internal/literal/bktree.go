// BK-tree over a category set's distinct phonetic codes (Burkhard–Keller,
// 1973). Levenshtein distance is a metric, so for a query q, a node code c,
// and any code x in the subtree hanging off c's child at edge e —
// dist(c, x) == e by construction — the triangle inequality gives
// dist(q, x) ≥ |dist(q, c) − e|. Nearest-code search therefore only
// descends into children whose edge lies within the current best radius of
// dist(q, c), skipping entire subtrees the naive scan would visit.
//
// The tree is grown by applySetDelta (update.go), inserting codes in group
// order, so node i covers group i, and laid out flat in a slice
// (first-child/next-sibling links), so searches traverse with an int32
// stack and zero pointer chasing — the same arena discipline as the trie
// index's frozen kernel (DESIGN.md §7). Node 0 is the root.

package literal

import "speakql/internal/metrics"

// bkNode is one BK-tree node; node i covers catSet.groups[i].
type bkNode struct {
	firstChild  int32 // index of first child, -1 when leaf
	nextSibling int32 // next node sharing this node's parent, -1 at end
	edge        int32 // edit distance to the parent's code
	maxChild    int32 // max edge among direct children (0 for a leaf); lets
	// the search bound its distance computation: if
	// dist(q, code) > radius+maxChild, neither this node
	// nor any child subtree can hold a nearest code.
}

// bkInsert hangs the next group's code, groups[len(nodes)], off the tree:
// descend from the root, at each node following the child whose edge equals
// the code's distance to the node, until no such child exists, and append
// the new node there. A fresh tree is every group inserted in order, so an
// update can copy a set's nodes and insert only the genuinely new codes —
// provided the indices of the groups already in the tree have not moved.
// The distance is the bounded kernel at a bound no Levenshtein distance
// exceeds (the longer code's length), so it is exact, and an insert of a
// code of at most 64 bytes into an arena with room for the node does not
// allocate.
func bkInsert(nodes []bkNode, groups []phoneGroup) []bkNode {
	if len(nodes) == 0 {
		return append(nodes, bkNode{firstChild: -1, nextSibling: -1})
	}
	code := groups[len(nodes)].code
	cur := int32(0)
	for {
		other := groups[cur].code
		d := int32(metrics.CharEditDistanceBounded(code, other, max(len(code), len(other))))
		// Codes are distinct, so d ≥ 1 and the new node never collides
		// with its parent.
		next := int32(-1)
		for ci := nodes[cur].firstChild; ci != -1; ci = nodes[ci].nextSibling {
			if nodes[ci].edge == d {
				next = ci
				break
			}
		}
		if next == -1 {
			nodes = append(nodes, bkNode{
				firstChild:  -1,
				nextSibling: nodes[cur].firstChild,
				edge:        d,
			})
			ni := int32(len(nodes) - 1)
			nodes[cur].firstChild = ni
			if d > nodes[cur].maxChild {
				nodes[cur].maxChild = d
			}
			return nodes
		}
		cur = next
	}
}
