package metrics

import (
	"math/rand"
	"strings"
	"testing"
)

// distAlphabet mixes the byte classes the voting hot loop actually compares
// (Metaphone consonant symbols, digits, lowered letters) so random pairs
// collide and diverge the way catalog codes do.
const distAlphabet = "0BFHJKLMNPRSXTWYabcdefghijklmnopqrstuvwxyz0123456789"

func randString(rng *rand.Rand, maxLen int) string {
	n := rng.Intn(maxLen + 1)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(distAlphabet[rng.Intn(len(distAlphabet))])
	}
	return sb.String()
}

// checkMyersMatchesBanded pins the bit-parallel kernel to the frozen banded
// reference for one (a, b, bound) triple: the return values must be equal —
// not merely order-equivalent — including every early-exit case, where both
// must say exactly bound+1.
func checkMyersMatchesBanded(t *testing.T, a, b string, bound int) {
	t.Helper()
	want := BandedDistanceBounded(a, b, bound)
	got := MyersDistanceBounded(a, b, bound)
	if got != want {
		t.Fatalf("MyersDistanceBounded(%q, %q, %d) = %d, banded reference = %d",
			a, b, bound, got, want)
	}
}

// TestMyersMatchesBanded is the 10k-random-pair differential test: for
// random pairs and bounds — tight bounds that force the early exit, exact
// bounds, and slack bounds that never trigger it — the Myers kernel must
// return exactly what the banded DP returns.
func TestMyersMatchesBanded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 10000; iter++ {
		a := randString(rng, 24)
		b := randString(rng, 24)
		// Bias some pairs toward near-misses so small distances are common.
		if rng.Intn(3) == 0 && len(a) > 0 {
			bs := []byte(a)
			bs[rng.Intn(len(bs))] ^= 1
			b = string(bs)
		}
		for _, bound := range []int{-1, 0, 1, 2, rng.Intn(8), len(a) + len(b)} {
			checkMyersMatchesBanded(t, a, b, bound)
		}
	}
}

// TestMyersMatchesBandedBoundary covers the operand-size boundary where the
// kernel switches strategy: 63/64/65-byte operands (the one-word limit),
// pairs straddling the limit, the small-vs-table Eq cutoff, and multi-byte
// UTF-8 text whose byte length crosses 64 long before its rune count does.
func TestMyersMatchesBandedBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	long := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(distAlphabet[rng.Intn(len(distAlphabet))])
		}
		return sb.String()
	}
	cases := [][2]string{
		{long(63), long(63)},
		{long(64), long(64)},
		{long(65), long(65)}, // both >64: banded fallback
		{long(64), long(65)}, // pattern exactly at the limit
		{long(10), long(200)},
		{long(65), long(66)},
		{strings.Repeat("é", 40), strings.Repeat("é", 40)},  // 80 bytes, 40 runes
		{strings.Repeat("é", 31), strings.Repeat("è", 33)},  // 62 vs 66 bytes
		{strings.Repeat("日", 30), strings.Repeat("日本", 15)}, // ≥64 bytes of UTF-8
		{"", long(5)},
		{long(5), ""},
		{"", ""},
	}
	for _, c := range cases {
		for _, bound := range []int{0, 1, 3, 10, 64, 500} {
			checkMyersMatchesBanded(t, c[0], c[1], bound)
		}
	}
}

// plainEditDistance is the unbounded two-row Levenshtein DP, the reference
// the bounded kernels are checked against. It allocates its rows, which is
// why shipped code calls CharEditDistance (the bounded kernel) instead.
func plainEditDistance(a, b string) int {
	m, n := len(a), len(b)
	if m == 0 {
		return n
	}
	if n == 0 {
		return m
	}
	prev := make([]int, n+1)
	cur := make([]int, n+1)
	for j := 0; j <= n; j++ {
		prev[j] = j
	}
	for i := 1; i <= m; i++ {
		cur[0] = i
		for j := 1; j <= n; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d := prev[j] + 1
			if v := cur[j-1] + 1; v < d {
				d = v
			}
			if v := prev[j-1] + cost; v < d {
				d = v
			}
			cur[j] = d
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// TestMyersMatchesUnbounded cross-checks against the third implementation:
// with a slack bound, both bounded kernels, and CharEditDistance with its
// own bound, must equal the plain DP — operands up to 150 bytes, so the
// banded fallback for two operands over 64 bytes is covered too.
func TestMyersMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 2000; iter++ {
		maxLen := 16
		if iter%10 == 0 {
			maxLen = 150
		}
		a := randString(rng, maxLen)
		b := randString(rng, maxLen)
		want := plainEditDistance(a, b)
		if got := MyersDistanceBounded(a, b, len(a)+len(b)+1); got != want {
			t.Fatalf("MyersDistanceBounded(%q, %q, slack) = %d, plain DP = %d",
				a, b, got, want)
		}
		if got := CharEditDistance(a, b); got != want {
			t.Fatalf("CharEditDistance(%q, %q) = %d, plain DP = %d", a, b, got, want)
		}
	}
}

// TestMyersByteSliceOperands exercises the generic instantiations the vote
// kernel uses: []byte vs string, []byte vs []byte.
func TestMyersByteSliceOperands(t *testing.T) {
	a, b := []byte("EMPLYS"), "EMPLY"
	if got, want := MyersDistanceBounded(a, b, 3), BandedDistanceBounded(a, b, 3); got != want {
		t.Fatalf("[]byte/string: got %d want %d", got, want)
	}
	if got, want := MyersDistanceBounded(a, []byte(b), 0), BandedDistanceBounded(a, []byte(b), 0); got != want {
		t.Fatalf("[]byte/[]byte: got %d want %d", got, want)
	}
}

// TestMyersZeroAllocs pins the bit-parallel kernel at zero heap allocations
// on both Eq strategies (small scan and 256-entry table) — it sits inside
// the zero-alloc voting and BK-search loops.
func TestMyersZeroAllocs(t *testing.T) {
	small := []string{"EMPLYS", "SLRS", "FRSTNM", "KTRN"}
	big := strings.Repeat("ABCDXYZ", 9) // 63 bytes: table path at n>16
	bigger := big + "Q"
	if n := testing.AllocsPerRun(100, func() {
		for _, a := range small {
			for _, b := range small {
				MyersDistanceBounded(a, b, 4)
			}
		}
		MyersDistanceBounded(big, bigger, 8)
	}); n != 0 {
		t.Fatalf("MyersDistanceBounded allocated %.1f times per run, want 0", n)
	}
}

// FuzzMyersMatchesBanded lets the fuzzer hunt for operand/bound shapes the
// seeded sweeps miss — including invalid UTF-8 and embedded NULs, which
// byte-level comparison must handle identically in both kernels.
func FuzzMyersMatchesBanded(f *testing.F) {
	f.Add("EMPLYS", "EMPLS", 2)
	f.Add("", "x", 0)
	f.Add("abcdefghijklmnopqrstuvwxyz", "abcdefghijklmnopqrstuvwxya", 1)
	f.Add(strings.Repeat("a", 70), strings.Repeat("b", 70), 5)
	f.Fuzz(func(t *testing.T, a, b string, bound int) {
		if len(a) > 512 || len(b) > 512 || bound > 1<<20 || bound < -1<<20 {
			t.Skip()
		}
		checkMyersMatchesBanded(t, a, b, bound)
	})
}
