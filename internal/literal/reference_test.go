package literal

import (
	"sort"
	"strings"

	"speakql/internal/metrics"
	"speakql/internal/phonetic"
)

// The voting references: the pre-index full scan and the per-token BK
// walker that the shipped kernel (voteScratch.run, one walk per distinct
// encoding) replaced. Both stay frozen here as the differential oracles of
// votescratch_test.go.
// The set-building reference: the fresh-set builder that applySetDelta
// replaced, the oracle of TestBuildSetMatchesReference.

// voteNaive is the full-scan reference implementation the BK-indexed
// kernel is differentially tested against (TestVoteIndexMatchesNaive): it
// compares every candidate substring with every entry in the set. Keep its
// semantics frozen — tie-break rules included — when touching the kernel.
func voteNaive(window []string, base int, entries []entry, k int) ([]string, int) {
	if len(window) == 0 || len(entries) == 0 {
		return nil, base
	}
	type cand struct {
		enc string
		raw string
		pos int // last transcript index covered (absolute)
	}
	var cands []cand
	for i := 0; i < len(window); i++ {
		var raw strings.Builder
		for j := i; j < len(window) && j-i < WindowSize; j++ {
			raw.WriteString(strings.ToLower(window[j]))
			// Encode the joined fragment as one word so multi-token
			// fragments match identifiers exactly (see phonetic.EncodeTokens).
			cands = append(cands, cand{
				enc: phonetic.Encode(raw.String()),
				raw: raw.String(),
				pos: base + j,
			})
		}
	}

	count := make([]int, len(entries))
	loc := make([]int, len(entries))
	bestDist := make([]int, len(entries))
	minRaw := make([]int, len(entries))
	for i := range loc {
		loc[i] = base - 1
		bestDist[i] = 1 << 30
		minRaw[i] = 1 << 30
	}
	for _, a := range cands {
		best := 1 << 30
		var winners []int
		for bi, b := range entries {
			d := metrics.CharEditDistance(a.enc, b.Phonetic)
			if d < best {
				best = d
				winners = winners[:0]
				winners = append(winners, bi)
			} else if d == best {
				winners = append(winners, bi)
			}
		}
		for _, w := range winners {
			count[w]++
			// Consume the transcript only up to the span that best matches
			// the winning literal — not the farthest voting span, which
			// would swallow the next placeholder's tokens in shared gaps.
			if best < bestDist[w] || (best == bestDist[w] && a.pos > loc[w]) {
				bestDist[w] = best
				loc[w] = a.pos
			}
			if rd := metrics.CharEditDistance(a.raw, strings.ToLower(entries[w].Name)); rd < minRaw[w] {
				minRaw[w] = rd
			}
		}
	}

	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		cx, cy := order[x], order[y]
		if count[cx] != count[cy] {
			return count[cx] > count[cy]
		}
		if minRaw[cx] != minRaw[cy] {
			return minRaw[cx] < minRaw[cy]
		}
		return entries[cx].Name < entries[cy].Name
	})
	top := make([]string, 0, k)
	for _, i := range order {
		if count[i] == 0 || len(top) == k {
			break
		}
		top = append(top, entries[i].Name)
	}
	if len(top) == 0 {
		return nil, base
	}
	winnerIdx := order[0]
	return top, loc[winnerIdx]
}

// runPerToken is the original candidate-at-a-time walker, kept as the
// frozen differential reference for run (TestVoteBatchMatchesPerToken).
// Each candidate re-walks the BK-tree with its own stack and bound, with no
// encoding dedup and no exact-code probe.
func (s *voteScratch) runPerToken(window []string, base int, set *catSet, k int) ([]string, int) {
	s.enumerate(window, base)
	s.resetCounters(set)
	var stack, winners []int32 // BK traversal stack; groups at the best radius

	for ci := range s.cands {
		c := &s.cands[ci]
		enc := s.encBuf[c.encOff:c.encEnd]

		// Nearest-code radius search. best starts at an a-priori upper
		// bound on the distance to any code (Levenshtein never exceeds the
		// longer string), so the first node visited already tightens it.
		best := int32(len(enc))
		if int32(set.maxCode) > best {
			best = int32(set.maxCode)
		}
		winners = winners[:0]
		stack = append(stack[:0], 0)
		for len(stack) > 0 {
			ni := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			node := &set.bk[ni]
			g := &set.groups[ni] // node i covers group i
			d := int32(metrics.CharEditDistanceBounded(enc, g.code, int(best)+int(node.maxChild)))
			if d < best {
				best = d
				winners = winners[:0]
				winners = append(winners, ni)
			} else if d == best {
				winners = append(winners, ni)
			}
			lo, hi := d-best, d+best
			for ni := node.firstChild; ni != -1; ni = set.bk[ni].nextSibling {
				if e := int32(set.bk[ni].edge); e >= lo && e <= hi {
					stack = append(stack, ni)
				}
			}
		}

		s.applyVotes(set, c, int32(base), best, winners)
	}

	return s.rank(set, base, k)
}

// referenceBuildSet is the fresh-set builder from before buildSet became
// the delta from an empty set: it deduplicates and sorts the names, caches
// lowered spellings and phonetic encodings, groups entries by identical
// code in sorted code order, and indexes the distinct codes in a BK-tree
// by inserting them in group order.
func referenceBuildSet(names []string) catSet {
	seen := make(map[string]bool, len(names))
	entries := make([]entry, 0, len(names))
	for _, n := range names {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		entries = append(entries, entry{
			Name:     n,
			Lower:    strings.ToLower(n),
			Phonetic: phonetic.Encode(n),
		})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })

	set := catSet{entries: entries, byLower: make(map[string]int32, len(entries))}
	byCode := make(map[string][]int32)
	for i, e := range entries {
		if _, ok := set.byLower[e.Lower]; !ok {
			set.byLower[e.Lower] = int32(i)
		}
		byCode[e.Phonetic] = append(byCode[e.Phonetic], int32(i))
		if len(e.Phonetic) > set.maxCode {
			set.maxCode = len(e.Phonetic)
		}
	}
	codes := make([]string, 0, len(byCode))
	for code := range byCode {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	set.groups = make([]phoneGroup, len(codes))
	set.members = make([]int32, 0, len(entries))
	for gi, code := range codes {
		ms := byCode[code]
		set.groups[gi] = phoneGroup{code: code, first: int32(len(set.members)), num: int32(len(ms))}
		set.members = append(set.members, ms...)
	}
	set.bk = referenceBuildBK(set.groups)
	set.byCode = referenceCodeMap(set.groups)
	return set
}

func referenceCodeMap(groups []phoneGroup) map[string]int32 {
	m := make(map[string]int32, len(groups))
	for gi, g := range groups {
		m[g.code] = int32(gi)
	}
	return m
}

func referenceBuildBK(groups []phoneGroup) []bkNode {
	if len(groups) == 0 {
		return nil
	}
	nodes := make([]bkNode, 0, len(groups))
	for range groups {
		nodes = bkInsert(nodes, groups)
	}
	return nodes
}
