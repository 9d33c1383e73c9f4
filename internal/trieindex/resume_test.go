package trieindex

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"speakql/internal/grammar"
)

// sameResults fails the test unless a and b are identical result lists —
// same structures, same distances, same order.
func sameResults(t *testing.T, label string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d\n a: %v\n b: %v", label, len(a), len(b), a, b)
	}
	for i := range a {
		if a[i].Distance != b[i].Distance ||
			strings.Join(a[i].Tokens, " ") != strings.Join(b[i].Tokens, " ") {
			t.Fatalf("%s: result %d differs:\n a: %v (%v)\n b: %v (%v)",
				label, i, a[i].Tokens, a[i].Distance, b[i].Tokens, b[i].Distance)
		}
	}
}

// splitFragments cuts q into 1–4 random contiguous fragments.
func splitFragments(rng *rand.Rand, q []string) [][]string {
	if len(q) == 0 {
		return [][]string{q}
	}
	cuts := rng.Intn(4)
	points := map[int]bool{}
	for i := 0; i < cuts; i++ {
		points[1+rng.Intn(len(q))] = true
	}
	var frags [][]string
	start := 0
	for i := 1; i <= len(q); i++ {
		if points[i] || i == len(q) {
			frags = append(frags, q[start:i])
			start = i
		}
	}
	return frags
}

// TestPrefixSearcherMatchesScratch is the resumability differential test:
// feeding a query to a PrefixSearcher fragment by fragment must return, at
// every prefix, byte-identical results to a from-scratch SearchTopK on that
// prefix — across k values, the uniform-weights ablation, and BDB off.
func TestPrefixSearcherMatchesScratch(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	queries := maskedQueries(ix, 40, 19)
	rng := rand.New(rand.NewSource(23))
	for _, opts := range []Options{
		{},
		{UniformWeights: true},
		{DisableBDB: true},
	} {
		for _, k := range []int{1, 3, 10} {
			ps := ix.NewPrefixSearcher(k, opts)
			for qi, q := range queries {
				ps.Reset()
				var prefix []string
				for _, frag := range splitFragments(rng, q) {
					prefix = append(prefix, frag...)
					ps.Extend(frag)
					got, _ := ps.Search()
					want, _ := ix.SearchTopK(prefix, k, opts)
					sameResults(t, "opts "+optsLabel(opts)+" k="+itoa(k)+" q#"+itoa(qi), got, want)
				}
			}
		}
	}
}

// TestPrefixSearcherSeed checks that the warm-start seed prunes and stays
// inside its own search.
//
// prunes: over the queries and splits of TestPrefixSearcherMatchesScratch
// (exact options, k ∈ {1, 3}), every seeded prefix search visits no more
// trie nodes than a from-scratch SearchTopK of the same prefix — a seed is
// an upper bound on the k-th best, so it can only tighten the pruning — and
// the seeded searches together visit fewer.
//
// pooled: a searcher goes back to the index's pool after each search, so a
// seed left on it would prune the next search. After a prefix search seeded
// with 0 (the distance of an exact structure), an unseeded SearchTopK of a
// farther query on the same index must still return the k results a fresh
// index returns.
func TestPrefixSearcherSeed(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	t.Run("prunes", func(t *testing.T) {
		queries := maskedQueries(ix, 40, 19)
		rng := rand.New(rand.NewSource(23))
		var searches, fewer, seeded, scratch int
		for _, k := range []int{1, 3} {
			ps := ix.NewPrefixSearcher(k, Options{})
			for qi, q := range queries {
				ps.Reset()
				var prefix []string
				for _, frag := range splitFragments(rng, q) {
					prefix = append(prefix, frag...)
					ps.Extend(frag)
					_, got := ps.Search()
					_, want := ix.SearchTopK(prefix, k, Options{})
					if got.NodesVisited > want.NodesVisited {
						t.Fatalf("k=%d q#%d %v: seeded search visited %d nodes, from scratch %d",
							k, qi, prefix, got.NodesVisited, want.NodesVisited)
					}
					searches++
					if got.NodesVisited < want.NodesVisited {
						fewer++
					}
					seeded += got.NodesVisited
					scratch += want.NodesVisited
				}
			}
		}
		if seeded >= scratch {
			t.Fatalf("%d searches: seeded visited %d nodes, from scratch %d — the seed pruned nothing",
				searches, seeded, scratch)
		}
		t.Logf("%d searches: seeded %d nodes, from scratch %d; %d seeded searches visited fewer",
			searches, seeded, scratch, fewer)
	})
	t.Run("pooled", func(t *testing.T) {
		exact := strings.Fields("SELECT x FROM x")
		far := strings.Fields("SELECT * FROM x WHERE x x IN ( x x x , x x x , x x x x )")
		want, _ := buildIndex(t, grammar.TestScale(), false).SearchTopK(far, 3, Options{})
		if len(want) != 3 || want[2].Distance == 0 {
			t.Fatalf("far query: want 3 results above distance 0, got %v", want)
		}
		// sync.Pool may drop a recycled searcher; repeat so the pooled one
		// is reused.
		for i := 0; i < 8; i++ {
			ps := ix.NewPrefixSearcher(1, Options{})
			ps.Extend(exact)
			ps.Search()
			if b := ps.seedBound(); b != 0 {
				t.Fatalf("seed after an exact structure = %v, want 0", b)
			}
			ps.Search() // seeded with 0
			got, _ := ix.SearchTopK(far, 3, Options{})
			sameResults(t, "unseeded search after a seeded one", got, want)
		}
	})
}

// TestPrefixSearcherApproxModesFallBack checks the DAP/INV fallback: the
// approximate modes must run unseeded (seedBound +Inf) and still match the
// plain search exactly.
func TestPrefixSearcherApproxModesFallBack(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), true)
	for _, opts := range []Options{{DAP: true}, {INV: true}} {
		ps := ix.NewPrefixSearcher(3, opts)
		for _, q := range maskedQueries(ix, 15, 31) {
			ps.Reset()
			var prefix []string
			for _, tok := range q {
				prefix = append(prefix, tok)
				ps.Extend([]string{tok})
				if !math.IsInf(ps.seedBound(), 1) {
					t.Fatalf("opts %+v: approximate mode produced a finite seed bound", opts)
				}
				got, _ := ps.Search()
				want, _ := ix.SearchTopK(prefix, 3, opts)
				sameResults(t, "approx", got, want)
			}
		}
	}
}

// TestPrefixSearcherCancelKeepsCheckpoints: a cancelled search must not
// corrupt the checkpoints — the next successful search still matches a
// from-scratch run.
func TestPrefixSearcherCancelKeepsCheckpoints(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	ps := ix.NewPrefixSearcher(3, Options{})
	ps.Extend(strings.Fields("SELECT x FROM x"))
	ps.Search()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ps.Extend(strings.Fields("WHERE x = x"))
	if rs, _ := ps.SearchContext(ctx); len(rs) != 0 {
		t.Fatalf("cancelled search returned %d results", len(rs))
	}
	got, _ := ps.Search()
	want, _ := ix.SearchTopK(strings.Fields("SELECT x FROM x WHERE x = x"), 3, Options{})
	sameResults(t, "after cancel", got, want)
}

// TestPrefixSearcherTinyIndex exercises the pool-smaller-than-k edge: with
// fewer structures than k the pool can still seed (it holds every
// structure), and results must match scratch.
func TestPrefixSearcherTinyIndex(t *testing.T) {
	ix := indexOf(10, "SELECT x FROM x", "SELECT * FROM x")
	ps := ix.NewPrefixSearcher(5, Options{})
	var prefix []string
	for _, tok := range strings.Fields("SELECT x FROM x") {
		prefix = append(prefix, tok)
		ps.Extend([]string{tok})
		got, _ := ps.Search()
		want, _ := ix.SearchTopK(prefix, 5, Options{})
		sameResults(t, "tiny", got, want)
	}
}

func optsLabel(o Options) string {
	var parts []string
	if o.UniformWeights {
		parts = append(parts, "uniform")
	}
	if o.DisableBDB {
		parts = append(parts, "nobdb")
	}
	if len(parts) == 0 {
		return "exact"
	}
	return strings.Join(parts, "+")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
