// The indexed voting kernel and its pooled scratch. One voteScratch owns
// every piece of per-call working memory — the candidate text/encoding
// arenas, the sparse per-entry counters, the BK traversal stack, and the
// ranking permutation — so a steady-state vote() performs zero heap
// allocations (pinned by TestVoteSteadyStateAllocs, the same discipline as
// the structure search kernel's pooled searcher, DESIGN.md §7).
//
// run is the pass of DESIGN.md §12: all candidate substrings of one
// determination are enumerated into shared arenas and deduplicated by
// phonetic encoding; each distinct encoding is resolved through the
// exact-code map or its own BK-tree walk from the root, and only then are
// votes applied in enumeration order. The tests keep the original
// candidate-at-a-time walker (TestVoteBatchMatchesPerToken) and the naive
// full scan (TestVoteIndexMatchesNaive) as frozen differential references.

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

	// Per-encoding state. Candidates with identical encodings collapse into
	// one representative each, resolved once.
	repOf   []int32   // candidate index → representative index
	repCand []int32   // representative index → owning candidate index
	repBest []int32   // representative index → nearest-code distance
	repWins [][]int32 // representative index → groups at repBest
	stack   []int32   // BK walk stack of node (= group) indices
}

var votePool = sync.Pool{New: func() any { return new(voteScratch) }}

func getVoteScratch() *voteScratch { return votePool.Get().(*voteScratch) }

func putVoteScratch(s *voteScratch) { votePool.Put(s) }

// run votes the window against one indexed category set. The returned
// top-k slice is scratch-backed — callers must copy it before the scratch
// is recycled. Rankings, tie-breaks, and the consumed transcript position
// are bit-identical to the per-token walker and the naive scan the tests
// keep as references (TestVoteBatchMatchesPerToken,
// TestVoteIndexMatchesNaive): nearest-code search depends only on a
// candidate's encoding, and votes are applied in the original enumeration
// order.
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

	var exactHits, bkNodes, entriesSeen int64
	s.repBest = s.repBest[:0]
	for len(s.repWins) < len(s.repCand) {
		s.repWins = append(s.repWins, nil)
	}
	for ri, ci := range s.repCand {
		c := &s.cands[ci]
		enc := s.encBuf[c.encOff:c.encEnd]
		wins := s.repWins[ri][:0]
		// An encoding that IS a live catalog code: codes are distinct, so
		// the matching group is the unique winner at distance 0 and the
		// radius search is skipped. (The walk reaches the same answer the
		// long way: best tightens to 0 at that node and |d−e| ≤ 0 prunes
		// everything else.) A dead code is a miss and takes the walk.
		if gi, ok := set.liveGroup(enc); ok {
			exactHits++
			s.repBest = append(s.repBest, 0)
			s.repWins[ri] = append(wins, gi)
			continue
		}
		// Nearest-code radius search from the root. best starts at an
		// a-priori upper bound on the distance to any live code
		// (Levenshtein never exceeds the longer string), so the first live
		// node visited enters wins or tightens best. Node i of the tree is
		// group i (applySetDelta inserts groups in order).
		//
		// A dead node (a tombstone, update.go) routes the walk but never
		// wins it: its code is still a point of the metric space, so its
		// distance prunes its children soundly, but it never enters wins
		// and never tightens best. On a set without tombstones the walk is
		// the plain BK nearest-code search.
		best := max(int32(len(enc)), int32(set.maxCode))
		s.stack = append(s.stack[:0], 0)
		for len(s.stack) > 0 {
			ni := s.stack[len(s.stack)-1]
			s.stack = s.stack[:len(s.stack)-1]
			node := &set.bk[ni]
			g := &set.groups[ni]
			bkNodes++
			entriesSeen += int64(g.num)
			// Beyond best+maxChild the exact distance is irrelevant: the node
			// is no winner and every child edge e ≤ maxChild fails
			// |d − e| ≤ best, so the kernel may exit early.
			d := int32(metrics.CharEditDistanceBounded(enc, g.code, int(best)+int(node.maxChild)))
			if g.num > 0 {
				if d < best {
					best = d
					wins = append(wins[:0], ni)
				} else if d == best {
					wins = append(wins, ni)
				}
			}
			for ch := node.firstChild; ch != -1; ch = set.bk[ch].nextSibling {
				if e := set.bk[ch].edge; e >= d-best && e <= d+best {
					s.stack = append(s.stack, ch)
				}
			}
		}
		s.repBest = append(s.repBest, best)
		s.repWins[ri] = wins
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

// liveGroup returns the group whose code is enc, ok=false when no live
// group has it. The string(enc) map probe does not allocate.
func (set *catSet) liveGroup(enc []byte) (int32, bool) {
	gi, ok := set.byCode[string(enc)]
	return gi, ok && set.groups[gi].num > 0
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
