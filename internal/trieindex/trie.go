// Package trieindex implements the structure index and search engine of
// Sections 3.3–3.4 and Appendix D: ground-truth SQL structures are packed
// into 50 disjoint tries, one per token length, and searched with a
// SQL-specific weighted edit distance (insert/delete only; W_K=1.2,
// W_S=1.1, W_L=1.0) computed by a column-passing dynamic program over trie
// paths, summing the weights as exact int32 tenths (sqltoken.Cost) so
// equal distances tie exactly. Three optimizations are provided:
//
//   - BDB — bidirectional bounds (Proposition 1) prune whole tries, and
//     subtrees at every trie node, whose best possible distance already
//     exceeds the current best; accuracy preserving.
//   - DAP — diversity-aware pruning: among sibling children drawn from the
//     "prime superset" ({AVG,COUNT,SUM,MAX,MIN} ∪ {AND,OR} ∪ {=,<,>}), only
//     the locally-best branch is explored; trades accuracy for latency.
//   - INV — an inverted index from non-universal keywords to the structures
//     containing them; when the transcript mentions such a keyword, only
//     those structures are scanned; trades accuracy for latency.
package trieindex

import (
	"sort"
	"sync"

	"speakql/internal/sqltoken"
)

// tokenID is an interned token. The structure alphabet is tiny (keywords,
// splchars, and the literal symbol), so 16 bits is generous.
type tokenID uint16

// unknownID never matches any indexed token: transcripts can contain words
// outside the structure alphabet only if masking was skipped, and those must
// simply never align.
const unknownID = tokenID(0xFFFF)

// interner maps token strings to dense ids.
type interner struct {
	ids  map[string]tokenID
	strs []string
}

func newInterner() *interner {
	return &interner{ids: make(map[string]tokenID)}
}

func (in *interner) intern(tok string) tokenID {
	if id, ok := in.ids[tok]; ok {
		return id
	}
	id := tokenID(len(in.strs))
	in.ids[tok] = id
	in.strs = append(in.strs, tok)
	return id
}

func (in *interner) lookup(tok string) tokenID {
	if id, ok := in.ids[tok]; ok {
		return id
	}
	return unknownID
}

func (in *interner) str(id tokenID) string { return in.strs[id] }

// node is a pointer-trie node, the Builder's build-time form. Children are
// kept sorted by token id for binary search during insertion; traversal
// order is deterministic.
type node struct {
	tok      tokenID
	leaf     bool
	children []*node
}

func (n *node) insertChild(tok tokenID) *node {
	i := sort.Search(len(n.children), func(i int) bool { return n.children[i].tok >= tok })
	if i < len(n.children) && n.children[i].tok == tok {
		return n.children[i]
	}
	c := &node{tok: tok}
	n.children = append(n.children, nil)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
	return c
}

// trie holds all structures of one token length in arena form (arena.go).
// Node 0 is the root (its tok entry is unused); node i's children are the
// index range [first[i], first[i+1]), sorted by token id, so first has one
// entry more than tok. The leaves are the nodes at depth n, the trie's
// length.
type trie struct {
	tok   []tokenID
	first []int32
	count int // number of structures
}

// Options configures index construction and search behaviour.
type Options struct {
	// DisableBDB turns off the bidirectional-bounds pruning (Proposition
	// 1) of whole tries and of subtrees at every node; the kernel then
	// prunes a subtree on min(col) alone. Used only by the Figure 15
	// ablation; BDB never changes results.
	DisableBDB bool
	// DAP enables diversity-aware pruning (Appendix D.3); approximate.
	DAP bool
	// INV enables the inverted-index fast path (Appendix D.3); approximate.
	INV bool
	// UniformWeights replaces the SQL-specific weights (W_K=1.2, W_S=1.1,
	// W_L=1.0) with 1.0 for every token class — the ablation of the
	// Section 3.4 design choice that Keywords are the most trustworthy
	// anchors. Not part of the paper's own ablation set.
	UniformWeights bool
}

// Index is the structure index: one arena trie per structure length plus
// the optional inverted index. Construct it with a Builder (or ReadIndex,
// whose index has no inverted lists); it is immutable afterwards, and
// Search is safe for concurrent use.
type Index struct {
	in      *interner
	tries   []*trie // indexed by structure length
	maxLen  int
	total   int
	weights []int32                 // edit cost per interned token id, in tenths
	prime   []int8                  // DAP prime-superset group per id (−1 none)
	invKey  []bool                  // id is a non-universal keyword (INV-indexed)
	inv     map[tokenID][][]tokenID // keyword → structures containing it

	// pool recycles searchers — and with them the DP column pool, the
	// interned-query scratch, and the heap-entry token buffers — across
	// SearchTopK calls, so steady-state searches allocate nothing.
	pool sync.Pool
}

func newIndex(maxLen int) *Index {
	return &Index{
		in:     newInterner(),
		tries:  make([]*trie, maxLen+1),
		maxLen: maxLen,
		inv:    make(map[tokenID][][]tokenID),
	}
}

// Builder accumulates structures into pointer tries, the build-time form;
// Build compacts them into the searchable Index (offline, Section 3.2).
type Builder struct {
	ix      *Index
	roots   []*node // pointer trie per structure length
	keepINV bool
}

// NewBuilder starts an index of structures up to maxLen tokens. Set keepINV
// if INV search will be used (it needs the inverted lists).
func NewBuilder(maxLen int, keepINV bool) *Builder {
	return &Builder{ix: newIndex(maxLen), roots: make([]*node, maxLen+1), keepINV: keepINV}
}

// invExcluded are the universal keywords excluded from the inverted index:
// they appear in (nearly) every structure and so discriminate nothing.
var invExcluded = map[string]bool{"SELECT": true, "FROM": true, "WHERE": true}

// Insert adds one structure (a token sequence over the grammar alphabet).
// Duplicate insertions are idempotent; empty or over-long ones are ignored.
func (b *Builder) Insert(tokens []string) {
	ix := b.ix
	if len(tokens) == 0 || len(tokens) > ix.maxLen {
		return
	}
	ids := make([]tokenID, len(tokens))
	for i, t := range tokens {
		id := ix.in.intern(t)
		ids[i] = id
		ix.bindToken(id, t)
	}
	n := b.roots[len(tokens)]
	if n == nil {
		n = &node{}
		b.roots[len(tokens)] = n
		ix.tries[len(tokens)] = &trie{}
	}
	for _, id := range ids {
		n = n.insertChild(id)
	}
	if n.leaf {
		return // duplicate
	}
	n.leaf = true
	ix.tries[len(tokens)].count++
	ix.total++
	if b.keepINV {
		ix.recordInv(ids)
	}
}

// Build compacts every pointer trie into its arena form, length-sorts the
// inverted lists, and returns the finished index. Each pointer trie is
// dropped as soon as it is flattened, so the collector can reclaim it while
// later lengths are still being compacted. Build consumes the builder: it
// must not be used afterwards.
func (b *Builder) Build() *Index {
	ix := b.ix
	for length, root := range b.roots {
		if root != nil {
			ix.tries[length].flatten(root)
			b.roots[length] = nil
		}
	}
	ix.sortInv()
	b.ix, b.roots = nil, nil
	return ix
}

// bindToken records the per-id metadata the search kernel reads instead of
// re-deriving it from strings on the hot path: edit cost, DAP prime
// group, and whether the token is INV-indexable.
func (ix *Index) bindToken(id tokenID, tok string) {
	for int(id) >= len(ix.weights) {
		ix.weights = append(ix.weights, 0)
		ix.prime = append(ix.prime, -1)
		ix.invKey = append(ix.invKey, false)
	}
	ix.weights[id] = sqltoken.Cost(tok)
	ix.prime[id] = int8(primeGroup(tok))
	ix.invKey[id] = sqltoken.IsKeyword(tok) && !invExcluded[tok]
}

// recordInv adds one structure to the inverted list of each distinct
// non-universal keyword it contains. Lists are appended in O(1) here and
// length-sorted once by sortInv, so non-monotonic insertion orders do not
// degrade the build to quadratic.
func (ix *Index) recordInv(ids []tokenID) {
	seen := map[tokenID]bool{}
	for _, id := range ids {
		if ix.invKey[id] && !seen[id] {
			seen[id] = true
			ix.inv[id] = append(ix.inv[id], ids)
		}
	}
}

// sortInv length-sorts the inverted lists, once, before the index is
// returned (Build); nothing mutates them afterwards, so
// concurrent INV scans need no lock. The INV scan expands outward from the
// query's length and stops on the Proposition 1 bound, which requires each
// list to be in non-decreasing length order; the sort is stable, so
// structures of equal length keep their insertion order (which is what ties
// resolve by).
func (ix *Index) sortInv() {
	for _, list := range ix.inv {
		sort.SliceStable(list, func(a, b int) bool { return len(list[a]) < len(list[b]) })
	}
}

// Total returns the number of distinct structures indexed.
func (ix *Index) Total() int { return ix.total }

// NumTries returns the number of non-empty tries.
func (ix *Index) NumTries() int {
	n := 0
	for _, t := range ix.tries {
		if t != nil {
			n++
		}
	}
	return n
}

// MemoryStats summarizes the index's size: structures, trie nodes, and the
// per-length breakdown (Section 3.3's memory-for-latency trade is visible
// in the node counts).
type MemoryStats struct {
	Structures int
	Nodes      int
	PerLength  map[int]LengthStats
}

// LengthStats is one trie's share.
type LengthStats struct {
	Structures int
	Nodes      int
}

// Memory returns the index's size stats, in O(1) per trie from the arena
// lengths.
func (ix *Index) Memory() MemoryStats {
	st := MemoryStats{Structures: ix.total, PerLength: map[int]LengthStats{}}
	for length, t := range ix.tries {
		if t == nil {
			continue
		}
		n := len(t.tok) - 1
		st.Nodes += n
		st.PerLength[length] = LengthStats{Structures: t.count, Nodes: n}
	}
	return st
}

func countNodes(n *node) int {
	total := 0
	for _, c := range n.children {
		total += 1 + countNodes(c)
	}
	return total
}
