// The indexed voting kernel and its pooled scratch. One voteScratch owns
// every piece of per-call working memory — the candidate text/encoding
// arenas, the sparse per-entry counters, the BK traversal frames, and the
// ranking permutation — so a steady-state vote() performs zero heap
// allocations (pinned by TestVoteSteadyStateAllocs, the same discipline as
// the structure search kernel's pooled searcher, DESIGN.md §7).
//
// run is the batched pass of DESIGN.md §12: all candidate substrings of one
// determination are enumerated into shared arenas, deduplicated by phonetic
// encoding, resolved through the exact-code map or one shared BK-tree
// traversal, and only then voted in enumeration order. The tests keep the
// original candidate-at-a-time walker (TestVoteBatchMatchesPerToken) and
// the naive full scan (TestVoteIndexMatchesNaive) as frozen differential
// references.

package literal

import (
	"bytes"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"speakql/internal/metrics"
	"speakql/internal/obs"
	"speakql/internal/phonetic"
)

const sentinelDist = 1 << 30 // "no distance recorded yet"; matches the naive scan

// voteCand is one enumerated window substring: its lowered text and
// phonetic encoding live as [off, end) ranges of the scratch arenas
// (offsets, not subslices, so arena growth cannot invalidate them), plus
// the absolute transcript index of its last token.
type voteCand struct {
	rawOff, rawEnd int32
	encOff, encEnd int32
	pos            int32
}

// voteFrame is one node of the shared BK traversal: the node index plus the
// span [off, off+num) of voteScratch.alive holding the representatives whose
// search radius still reaches this node.
type voteFrame struct {
	node     int32
	off, num int32
}

// voteScratch is the reusable state of one indexed vote.
type voteScratch struct {
	rawBuf []byte // lowered candidate text arena
	encBuf []byte // candidate phonetic-encoding arena
	cands  []voteCand

	// Sparse per-entry counters: slot[e] is 1+ the counter row of entry e,
	// 0 when e has not won any vote this call. Only rows for touched
	// entries exist, so counter work is O(winners), not O(catalog); touched
	// drives the end-of-call reset of slot.
	slot     []int32
	touched  []int32 // entry indices with counter rows, in first-win order
	count    []int32
	bestDist []int32
	minRaw   []int32
	loc      []int32

	order  []int32 // ranking permutation over counter rows
	topBuf []string
	ranker voteRanker

	// Batched-pass state. Candidates with identical encodings collapse into
	// one representative each; representatives without an exact-code hit
	// ("open") walk the BK-tree together, framed by spans of the alive arena.
	repOf   []int32   // candidate index → representative index
	repCand []int32   // representative index → owning candidate index
	repBest []int32   // representative index → best distance so far
	repDist []int32   // representative index → distance at the expanded node
	repWins [][]int32 // representative index → winning groups at repBest
	open    []int32   // representatives pending BK traversal
	frames  []voteFrame
	alive   []int32 // rep-index arena, spans owned by frames
}

var votePool = sync.Pool{New: func() any { return new(voteScratch) }}

func getVoteScratch() *voteScratch { return votePool.Get().(*voteScratch) }

func putVoteScratch(s *voteScratch) { votePool.Put(s) }

// run votes the window against one indexed category set in one batched
// pass. The returned top-k slice is scratch-backed — callers must copy it
// before the scratch is recycled. Rankings, tie-breaks, and the consumed
// transcript position are bit-identical to the per-token walker and the
// naive scan the tests keep as references (TestVoteBatchMatchesPerToken,
// TestVoteIndexMatchesNaive): nearest-code search depends only on a
// candidate's encoding, winner membership is the order-independent set of
// groups at the final best radius, and votes are applied in the original
// enumeration order.
func (s *voteScratch) run(window []string, base int, set *catSet, k int) ([]string, int) {
	s.enumerate(window, base)

	// Deduplicate candidates by phonetic encoding. Window spans repeat
	// ("business" at two transcript positions) and Metaphone collapses
	// near-spellings, so one representative searches for the whole class.
	s.repOf, s.repCand = s.repOf[:0], s.repCand[:0]
	for ci := range s.cands {
		c := &s.cands[ci]
		enc := s.encBuf[c.encOff:c.encEnd]
		rep := int32(-1)
		for ri, oc := range s.repCand {
			o := &s.cands[oc]
			if bytes.Equal(enc, s.encBuf[o.encOff:o.encEnd]) {
				rep = int32(ri)
				break
			}
		}
		if rep < 0 {
			rep = int32(len(s.repCand))
			s.repCand = append(s.repCand, int32(ci))
		}
		s.repOf = append(s.repOf, rep)
	}

	// Resolve representatives whose encoding IS a catalog code: codes are
	// distinct, so the matching group is the unique winner at distance 0 and
	// the radius search is skipped entirely. (The per-token walker reaches
	// the same answer the long way: best tightens to 0 at that node and
	// |d−e| ≤ 0 prunes everything else.) The rest go to the shared
	// traversal. The string(enc) map probe does not allocate.
	var exactHits int64
	s.repBest, s.open = s.repBest[:0], s.open[:0]
	for len(s.repWins) < len(s.repCand) {
		s.repWins = append(s.repWins, nil)
	}
	for len(s.repDist) < len(s.repCand) {
		s.repDist = append(s.repDist, 0)
	}
	for ri, ci := range s.repCand {
		c := &s.cands[ci]
		enc := s.encBuf[c.encOff:c.encEnd]
		s.repWins[ri] = s.repWins[ri][:0]
		if gi, ok := set.byCode[string(enc)]; ok {
			exactHits++
			s.repBest = append(s.repBest, 0)
			s.repWins[ri] = append(s.repWins[ri], gi)
			continue
		}
		// A-priori upper bound on the distance to any code: Levenshtein
		// never exceeds the longer string.
		best := int32(len(enc))
		if int32(set.maxCode) > best {
			best = int32(set.maxCode)
		}
		s.repBest = append(s.repBest, best)
		s.open = append(s.open, int32(ri))
	}

	// Shared BK traversal: every frame carries the representatives still in
	// radius at its node, so the node walk and group loads are paid once per
	// node, not once per candidate. Each rep's distances, bounds, and
	// pruning decisions are its own — the visited set per rep is exactly the
	// solo walker's up to visit order, and winner membership is
	// order-independent (DESIGN.md §12).
	var bkNodes, entriesSeen int64
	if len(s.open) > 0 {
		s.alive = append(s.alive[:0], s.open...)
		s.frames = append(s.frames[:0], voteFrame{node: 0, off: 0, num: int32(len(s.open))})
		for len(s.frames) > 0 {
			f := s.frames[len(s.frames)-1]
			s.frames = s.frames[:len(s.frames)-1]
			// LIFO reclaim: when a frame is popped, every span above its own
			// belongs to an already-finished subtree, so the arena stays
			// bounded by one root-to-leaf path of live spans.
			s.alive = s.alive[:f.off+f.num]
			node := &set.bk[f.node]
			g := &set.groups[node.group]
			bkNodes++
			entriesSeen += int64(g.num) * int64(f.num)
			for idx := f.off; idx < f.off+f.num; idx++ {
				ri := s.alive[idx]
				c := &s.cands[s.repCand[ri]]
				enc := s.encBuf[c.encOff:c.encEnd]
				best := s.repBest[ri]
				// Beyond best+maxChild the exact distance is irrelevant: the
				// node is no winner and every child edge e ≤ maxChild fails
				// |d − e| ≤ best, so the subtree is provably outside this
				// rep's radius and the kernel may exit early.
				d := int32(metrics.CharEditDistanceBounded(enc, g.code, int(best)+int(node.maxChild)))
				if d < best {
					s.repBest[ri] = d
					s.repWins[ri] = append(s.repWins[ri][:0], node.group)
				} else if d == best {
					s.repWins[ri] = append(s.repWins[ri], node.group)
				}
				s.repDist[ri] = d
			}
			for ci := node.firstChild; ci != -1; ci = set.bk[ci].nextSibling {
				e := int32(set.bk[ci].edge)
				off := int32(len(s.alive))
				for idx := f.off; idx < f.off+f.num; idx++ {
					ri := s.alive[idx]
					if d, best := s.repDist[ri], s.repBest[ri]; e >= d-best && e <= d+best {
						s.alive = append(s.alive, ri)
					}
				}
				if num := int32(len(s.alive)) - off; num > 0 {
					s.frames = append(s.frames, voteFrame{node: ci, off: off, num: num})
				}
			}
		}
	}

	obs.Add("literal.vote_calls", 1)
	obs.Add("literal.bk_nodes", bkNodes)
	obs.Add("literal.entries_skipped",
		int64(len(s.cands))*int64(len(set.entries))-entriesSeen)
	obs.Add("literal.enc_dedup_hits", int64(len(s.cands)-len(s.repCand)))
	obs.Add("literal.exact_code_hits", exactHits)

	// Apply votes candidate by candidate, in enumeration order, off the
	// representative's resolved result — the same per-entry updates as the
	// per-token walker and the naive scan.
	s.resetCounters(set)
	for ci := range s.cands {
		c := &s.cands[ci]
		ri := s.repOf[ci]
		s.applyVotes(set, c, int32(base), s.repBest[ri], s.repWins[ri])
	}

	return s.rank(set, base, k)
}

// enumerate fills the candidate arenas with every window substring, exactly
// the naive scan's (i, j) order — candidate order feeds the position
// tie-break.
func (s *voteScratch) enumerate(window []string, base int) {
	s.rawBuf, s.encBuf, s.cands = s.rawBuf[:0], s.encBuf[:0], s.cands[:0]
	for i := 0; i < len(window); i++ {
		rawStart := int32(len(s.rawBuf))
		for j := i; j < len(window) && j-i < WindowSize; j++ {
			s.rawBuf = appendLower(s.rawBuf, window[j])
			encOff := int32(len(s.encBuf))
			s.encBuf = phonetic.AppendEncode(s.encBuf, s.rawBuf[rawStart:])
			s.cands = append(s.cands, voteCand{
				rawOff: rawStart, rawEnd: int32(len(s.rawBuf)),
				encOff: encOff, encEnd: int32(len(s.encBuf)),
				pos: int32(base + j),
			})
		}
	}
}

// resetCounters clears the sparse per-entry counter rows for a fresh vote.
func (s *voteScratch) resetCounters(set *catSet) {
	if len(s.slot) < len(set.entries) {
		s.slot = make([]int32, len(set.entries))
	}
	s.touched = s.touched[:0]
	s.count, s.bestDist, s.minRaw, s.loc = s.count[:0], s.bestDist[:0], s.minRaw[:0], s.loc[:0]
}

// applyVotes gives one vote from candidate c to every entry of every
// winning group, with the same per-entry updates as the naive scan.
func (s *voteScratch) applyVotes(set *catSet, c *voteCand, base, best int32, winners []int32) {
	raw := s.rawBuf[c.rawOff:c.rawEnd]
	for _, gi := range winners {
		g := set.groups[gi]
		for _, w := range set.members[g.first : g.first+g.num] {
			si := s.slot[w]
			if si == 0 {
				s.touched = append(s.touched, w)
				s.count = append(s.count, 0)
				s.bestDist = append(s.bestDist, sentinelDist)
				s.minRaw = append(s.minRaw, sentinelDist)
				s.loc = append(s.loc, base-1)
				si = int32(len(s.touched))
				s.slot[w] = si
			}
			si--
			s.count[si]++
			// Consume the transcript only up to the span that best
			// matches the winning literal (as the naive scan does).
			if best < s.bestDist[si] || (best == s.bestDist[si] && c.pos > s.loc[si]) {
				s.bestDist[si] = best
				s.loc[si] = c.pos
			}
			// The raw-spelling tie-break: bounded by the current
			// minimum, since only a strictly smaller distance updates
			// it — identical to the naive scan's unbounded minimum.
			if rd := metrics.CharEditDistanceBounded(raw, set.entries[w].Lower, int(s.minRaw[si])); rd < int(s.minRaw[si]) {
				s.minRaw[si] = int32(rd)
			}
		}
	}
}

// rank orders the touched entries — votes desc, raw distance asc, name asc —
// and returns the scratch-backed top-k plus the consumed position. The
// comparator is total (names are unique), so the result matches the naive
// scan's stable sort over the full entry list, whose zero-vote tail never
// reaches the top-k anyway.
func (s *voteScratch) rank(set *catSet, base, k int) ([]string, int) {
	s.order = s.order[:0]
	for i := range s.touched {
		s.order = append(s.order, int32(i))
	}
	s.ranker.s, s.ranker.set = s, set
	sort.Sort(&s.ranker)

	s.topBuf = s.topBuf[:0]
	for _, oi := range s.order {
		if len(s.topBuf) == k {
			break
		}
		s.topBuf = append(s.topBuf, set.entries[s.touched[oi]].Name)
	}

	// Reset the sparse slots while touched is still valid; the next run
	// may vote against a different (smaller) category set.
	for _, w := range s.touched {
		s.slot[w] = 0
	}

	if len(s.topBuf) == 0 {
		return nil, base
	}
	return s.topBuf, int(s.loc[s.order[0]])
}

// voteRanker sorts the scratch's counter rows; it lives inside the scratch
// so sort.Sort receives an already-heap-allocated interface value.
type voteRanker struct {
	s   *voteScratch
	set *catSet
}

func (r *voteRanker) Len() int { return len(r.s.order) }

func (r *voteRanker) Swap(i, j int) {
	o := r.s.order
	o[i], o[j] = o[j], o[i]
}

func (r *voteRanker) Less(i, j int) bool {
	s := r.s
	a, b := s.order[i], s.order[j]
	if s.count[a] != s.count[b] {
		return s.count[a] > s.count[b]
	}
	if s.minRaw[a] != s.minRaw[b] {
		return s.minRaw[a] < s.minRaw[b]
	}
	return r.set.entries[s.touched[a]].Name < r.set.entries[s.touched[b]].Name
}

// appendLower appends s lowercased to dst. ASCII — every transcript token
// after spoken-form substitution — lowers byte-by-byte without allocating;
// anything else falls back to strings.ToLower so the bytes stay identical
// to the naive scan's.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return append(dst, strings.ToLower(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}
