package trieindex

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"speakql/internal/grammar"
	"speakql/internal/sqltoken"
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

// diveSeed runs the warm-start dive alone for one query and returns the
// seed it leaves on the searcher, in tenths.
func (ix *Index) diveSeed(maskOut []string, k int, opts Options) int32 {
	var st Stats
	s := ix.getSearcher(maskOut, k, opts, &st)
	defer ix.putSearcher(s)
	s.dive(context.Background())
	return s.seed
}

// referenceDiveSeed is diveSeed for the full-column dive of the reference
// (referenceDive).
func (ix *Index) referenceDiveSeed(maskOut []string, k int, opts Options) int32 {
	var st Stats
	s := ix.getSearcher(maskOut, k, opts, &st)
	defer ix.putSearcher(s)
	s.referenceDive()
	return s.seed
}

// TestDiveSeed checks the warm start (dive.go) against the sweep it seeds.
//
// sound: for the exact, uniform-weights and BDB-off searches, and INV
// searches that fall back to the tries, at k ∈ {1, 3, 10}, the seed is
// the full-column reference dive's seed and never below the true k-th best
// of the unseeded sweep; the seeded search returns the unseeded results,
// visits no more sweep nodes, and the seeded searches together visit
// fewer.
//
// pooled: the seed and the dive's k-best list live on the pooled searcher,
// so a stale one would prune the next search. After a k=10 search of an
// exact structure, a k=1 search of a far query on the same index must
// return a fresh index's answer.
//
// tiny: with fewer structures than k the dive cannot hold k leaves, so the
// seed is unbounded and the search returns every structure; with k equal
// to the structure count the beam holds the whole trie, records every
// leaf, and the seed is the true k-th best.
func TestDiveSeed(t *testing.T) {
	ix, roots := buildWithPointers(t, grammar.TestScale(), true)
	t.Run("sound", func(t *testing.T) {
		queries := maskedQueries(ix, 48, 37)
		var searches, fewer, seededNodes, sweepNodes, diveSteps int
		for _, opts := range []Options{{}, {UniformWeights: true}, {DisableBDB: true}, {INV: true}} {
			for _, k := range []int{1, 3, 10} {
				for qi, q := range queries {
					want, sweep := ix.searchPointer(roots, q, k, opts, true, false)
					if sweep.UsedINV {
						continue // the INV scan answered: no dive, no sweep
					}
					label := fmt.Sprintf("%+v k=%d q#%d %v", opts, k, qi, q)
					seed := ix.diveSeed(q, k, opts)
					if ref := ix.referenceDiveSeed(q, k, opts); seed != ref {
						t.Fatalf("%s: banded dive seed %v, full-column dive seed %v", label, seed, ref)
					}
					if len(want) == k && float64(seed)/sqltoken.CostScale < want[k-1].Distance {
						t.Fatalf("%s: seed %v below the true k-th best %v", label, seed, want[k-1].Distance)
					}
					got, st := ix.SearchTopK(q, k, opts)
					sameResults(t, label, got, want)
					if st.NodesVisited > sweep.NodesVisited {
						t.Fatalf("%s: seeded sweep visited %d nodes, unseeded %d", label, st.NodesVisited, sweep.NodesVisited)
					}
					searches++
					if st.NodesVisited < sweep.NodesVisited {
						fewer++
					}
					seededNodes += st.NodesVisited
					sweepNodes += sweep.NodesVisited
					diveSteps += st.DiveSteps
				}
			}
		}
		if seededNodes >= sweepNodes || seededNodes+diveSteps >= sweepNodes {
			t.Fatalf("%d searches: seeded sweep %d nodes + %d dive steps, unseeded %d — the seed saved nothing",
				searches, seededNodes, diveSteps, sweepNodes)
		}
		t.Logf("%d searches: seeded sweep %d nodes + %d dive steps, unseeded %d; %d seeded searches visited fewer",
			searches, seededNodes, diveSteps, sweepNodes, fewer)
	})
	t.Run("pooled", func(t *testing.T) {
		exact := strings.Fields("SELECT x FROM x")
		far := strings.Fields("SELECT * FROM x WHERE x x IN ( x x x , x x x , x x x x )")
		want, _ := buildIndex(t, grammar.TestScale(), false).SearchTopK(far, 1, Options{})
		if len(want) != 1 || want[0].Distance == 0 {
			t.Fatalf("far query: want 1 result above distance 0, got %v", want)
		}
		// sync.Pool may drop a recycled searcher; repeat so the pooled one
		// is reused.
		for i := 0; i < 8; i++ {
			if rs, _ := ix.SearchTopK(exact, 10, Options{}); len(rs) != 10 || rs[0].Distance != 0 {
				t.Fatalf("exact structure: want 10 results from distance 0, got %v", rs)
			}
			got, _ := ix.SearchTopK(far, 1, Options{})
			sameResults(t, "far search after an exact one", got, want)
		}
	})
	t.Run("tiny", func(t *testing.T) {
		tiny, tinyRoots := indexWithPointers(10, "SELECT x FROM x", "SELECT * FROM x")
		q := strings.Fields("SELECT x FROM x")
		if seed := tiny.diveSeed(q, 5, Options{}); seed != unbounded {
			t.Fatalf("2 structures, k=5: seed %v, want unbounded", seed)
		}
		want, _ := tiny.searchPointer(tinyRoots, q, 5, Options{}, false, false)
		got, _ := tiny.SearchTopK(q, 5, Options{})
		if len(got) != 2 {
			t.Fatalf("2 structures, k=5: %d results", len(got))
		}
		sameResults(t, "tiny", got, want)
		if seed := float64(tiny.diveSeed(q, 2, Options{})) / sqltoken.CostScale; seed != want[1].Distance {
			t.Fatalf("2 structures, k=2: seed %v, want the second-best distance %v", seed, want[1].Distance)
		}
	})
}

// TestDiveScratchGrowsWithBeam checks that the dive's DP columns grow with
// its beam, not with k: one search on a fresh index allocates no more at k
// far above Total() than at k = Total(), where the beam already holds every
// node of a level. Each figure is the least of three runs, each on a fresh
// index, so each starts from an empty searcher pool.
func TestDiveScratchGrowsWithBeam(t *testing.T) {
	q := strings.Fields("SELECT x FROM x WHERE x = x AND x = x OR x < x x x foo A B")
	total := indexOf(16, fuzzStructures...).Total()
	bytesAt := func(k int) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			ix := indexOf(16, fuzzStructures...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if rs, _ := ix.SearchTopK(q, k, Options{}); len(rs) != total {
				t.Fatalf("k=%d: %d results, want all %d", k, len(rs), total)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	atTotal, far := bytesAt(total), bytesAt(1000*total)
	if far > atTotal {
		t.Fatalf("one search allocated %d B at k=%d, %d B at k=%d (Total)", far, 1000*total, atTotal, total)
	}
	t.Logf("one search allocated %d B at k=%d, %d B at k=%d (Total)", far, 1000*total, atTotal, total)
}
