// Package metrics implements the accuracy and distance measures of
// Section 6.2: per-class token precision/recall rates (KPR, SPR, LPR, WPR,
// KRR, SRR, LRR, WRR), the Token Edit Distance (TED, insertions and
// deletions only), character- and phonetic-level edit distances, and the CDF
// and summary-statistic helpers the experiment drivers use to regenerate the
// paper's figures.
package metrics

import "speakql/internal/sqltoken"

// TokenEditDistance is the TED of Section 6.2: the minimum number of token
// insertions and deletions transforming hypothesis into reference. It is the
// unweighted longest-common-subsequence distance, and serves as a surrogate
// for the number of touches a user needs to repair a query.
func TokenEditDistance(ref, hyp []string) int {
	lcs := lcsLen(ref, hyp)
	return (len(ref) - lcs) + (len(hyp) - lcs)
}

func lcsLen(a, b []string) int {
	if len(b) == 0 || len(a) == 0 {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
		for j := range cur {
			cur[j] = 0
		}
	}
	return prev[len(b)]
}

// WeightedTokenEditDistance is the SQL-specific weighted edit distance of
// Section 3.4: insert/delete only, with per-token weights W_K=1.2 (Keyword),
// W_S=1.1 (SplChar), W_L=1.0 (Literal). It is the metric the structure
// search engine minimizes, summed the same way: in exact integer tenths
// (sqltoken.Cost), converted once at the end.
func WeightedTokenEditDistance(a, b []string) float64 {
	n, m := len(a), len(b)
	costB := make([]int32, m)
	prev := make([]int32, m+1)
	cur := make([]int32, m+1)
	for j := 1; j <= m; j++ {
		costB[j-1] = sqltoken.Cost(b[j-1])
		prev[j] = prev[j-1] + costB[j-1]
	}
	for i := 1; i <= n; i++ {
		costA := sqltoken.Cost(a[i-1])
		cur[0] = prev[0] + costA
		for j := 1; j <= m; j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1]
			} else {
				cur[j] = min(prev[j]+costA, cur[j-1]+costB[j-1])
			}
		}
		prev, cur = cur, prev
	}
	return float64(prev[m]) / sqltoken.CostScale
}

// WordErrorRate is the ASR community's WER adapted to query tokens: the
// token edit distance normalized by the reference length (Figure 11's
// "Word Error Rate" panel). Zero means a perfect transcription; values can
// exceed 1 when the hypothesis is much longer than the reference.
func WordErrorRate(ref, hyp []string) float64 {
	if len(ref) == 0 {
		if len(hyp) == 0 {
			return 0
		}
		return 1
	}
	return float64(TokenEditDistance(ref, hyp)) / float64(len(ref))
}

// CharEditDistanceBounded is the Levenshtein distance restricted to a band:
// it returns the exact distance when that distance is at most bound, and
// bound+1 as soon as the distance provably exceeds bound. The contract
// literal determination's BK-tree search relies on is exactly that: results
// ≤ bound are the exact distance; any larger return value only asserts
// "greater than bound", never a specific distance.
//
// The bound check auto-selects its kernel: operands where the shorter side
// fits one machine word (≤64 bytes — every phonetic code and catalog
// literal in practice) run the Myers bit-parallel kernel (myers.go); longer
// pairs fall back to the banded DP, kept below as BandedDistanceBounded,
// the frozen differential reference the bit-parallel kernel is pinned
// against. Both arguments may independently be string or []byte so callers
// holding pooled byte scratch avoid a conversion allocation; the function
// never allocates.
func CharEditDistanceBounded[A ~string | ~[]byte, B ~string | ~[]byte](a A, b B, bound int) int {
	return MyersDistanceBounded(a, b, bound)
}

// BandedDistanceBounded is the banded two-row DP form of the bounded
// Levenshtein distance — the pre-bit-parallel kernel, retained verbatim as
// the frozen differential reference for MyersDistanceBounded and as the
// fallback when both operands exceed 64 bytes. Same contract as
// CharEditDistanceBounded: exact results ≤ bound, bound+1 beyond.
//
// The computation visits only DP cells with |i-j| ≤ bound (every cheaper
// path leaves the band), prunes on the length difference before touching
// any cell, and exits early once a whole row exceeds the bound. For
// strings shorter than the internal stack buffer the function does not
// allocate at all.
func BandedDistanceBounded[A ~string | ~[]byte, B ~string | ~[]byte](a A, b B, bound int) int {
	m, n := len(a), len(b)
	if bound < 0 {
		bound = 0
	}
	diff := m - n
	if diff < 0 {
		diff = -diff
	}
	if diff > bound {
		return bound + 1
	}
	if m == 0 {
		return n // n ≤ bound here
	}
	if n == 0 {
		return m
	}
	overflow := bound + 1
	// Two DP rows over b. Small inputs — every phonetic code and catalog
	// literal in practice — fit the stack buffers; longer ones fall back to
	// the heap.
	const stackCap = 128
	var sp, sc [stackCap]int
	prev, cur := sp[:stackCap], sc[:stackCap]
	if n+1 > stackCap {
		prev = make([]int, n+1)
		cur = make([]int, n+1)
	}
	for j := 0; j <= n; j++ {
		if j <= bound {
			prev[j] = j
		} else {
			prev[j] = overflow
			break // cells beyond the band are never read past j = hi+1
		}
	}
	for i := 1; i <= m; i++ {
		lo := i - bound
		if lo < 1 {
			lo = 1
		}
		hi := i + bound
		if hi > n {
			hi = n
		}
		// Seed the cell left of the band so cur[lo-1] reads are in-band
		// deletions (j = 0) or +inf.
		if lo == 1 {
			if i <= bound {
				cur[0] = i
			} else {
				cur[0] = overflow
			}
		} else {
			cur[lo-1] = overflow
		}
		rowMin := overflow
		for j := lo; j <= hi; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d := prev[j-1] + cost
			// prev[j] is outside the previous row's band when j = i+bound;
			// it was seeded to overflow below.
			if v := prev[j] + 1; v < d {
				d = v
			}
			if v := cur[j-1] + 1; v < d {
				d = v
			}
			if d > overflow {
				d = overflow // keep sentinel cells from drifting upward
			}
			cur[j] = d
			if d < rowMin {
				rowMin = d
			}
		}
		if rowMin > bound {
			return overflow // every continuation can only grow
		}
		if hi < n {
			cur[hi+1] = overflow // next row reads prev[hi'] one past this band
		}
		prev, cur = cur, prev
	}
	if d := prev[n]; d <= bound {
		return d
	}
	return overflow
}

// CharEditDistance is the Levenshtein distance (insert, delete, substitute)
// between two strings, used for string- and phonetic-level literal
// comparison (Section 4.3, Appendix F.7). It is the bounded kernel at a
// bound no distance exceeds, the longer operand's length, so it is exact
// and allocates nothing when either operand is at most 64 bytes.
func CharEditDistance(a, b string) int {
	return CharEditDistanceBounded(a, b, max(len(a), len(b)))
}
