package trieindex

import (
	"context"
	"strings"
	"testing"

	"speakql/internal/grammar"
)

// TestArenaMatchesPointer is the pointer-vs-arena differential test: the
// arena kernel must return byte-identical results to the pointer-trie
// reference kernel (reference_test.go) pruning on min(col) alone and with no
// warm-start seed, for every query, k, and option combination — exact, DAP,
// INV, uniform weights, BDB off. Its work counters must equal those of the
// full-column reference given the same per-node bound and the same dive
// (DAP runs none), and under DisableBDB those of the seeded reference
// without the bound, except DiveSteps, which banded columns may only
// lower; over all searches they must lower it. The bound may only ever
// visit fewer nodes. Build's arenas must also hold exactly the pointer
// tries' structures and nodes.
func TestArenaMatchesPointer(t *testing.T) {
	ix, roots := buildWithPointers(t, grammar.TestScale(), true)
	mem := ix.Memory()
	for length, root := range roots {
		if root == nil {
			continue
		}
		if got, want := mem.PerLength[length], pointerStats(root); got != want {
			t.Fatalf("length %d: arena stats %+v, pointer trie %+v", length, got, want)
		}
	}
	queries := maskedQueries(ix, 48, 19)
	optVariants := []Options{
		{},
		{DisableBDB: true},
		{DAP: true},
		{INV: true},
		{UniformWeights: true},
	}
	var diveSteps, refDiveSteps int
	for _, opts := range optVariants {
		for _, k := range []int{1, 3, 10} {
			for qi, q := range queries {
				pRes, _ := ix.searchPointer(roots, q, k, opts, false, false)
				aRes, aSt := ix.SearchTopK(q, k, opts)
				if len(pRes) != len(aRes) {
					t.Fatalf("opts %+v k=%d q#%d %v: pointer %d results, arena %d",
						opts, k, qi, q, len(pRes), len(aRes))
				}
				for i := range pRes {
					if pRes[i].Distance != aRes[i].Distance ||
						strings.Join(pRes[i].Tokens, " ") != strings.Join(aRes[i].Tokens, " ") {
						t.Fatalf("opts %+v k=%d q#%d %v: result %d differs:\n pointer %v (%v)\n arena   %v (%v)",
							opts, k, qi, q, i,
							pRes[i].Tokens, pRes[i].Distance,
							aRes[i].Tokens, aRes[i].Distance)
					}
				}
				_, sSt := ix.searchPointer(roots, q, k, opts, false, true)
				_, bSt := ix.searchPointer(roots, q, k, opts, true, true)
				// The node bound only ever skips nodes: every other counter
				// of the seeded reference stays put.
				sameOtherwise := sSt
				sameOtherwise.NodesVisited = bSt.NodesVisited
				if bSt != sameOtherwise || bSt.NodesVisited > sSt.NodesVisited {
					t.Fatalf("opts %+v k=%d q#%d %v: node bound changed stats:\n unbounded %+v\n bounded   %+v",
						opts, k, qi, q, sSt, bSt)
				}
				if !matchesReferenceStats(aSt, bSt) {
					t.Fatalf("opts %+v k=%d q#%d %v: stats differ:\n pointer %+v\n arena   %+v",
						opts, k, qi, q, bSt, aSt)
				}
				if opts.DisableBDB && !matchesReferenceStats(aSt, sSt) {
					t.Fatalf("opts %+v k=%d q#%d %v: DisableBDB stats differ from the min(col) kernel:\n pointer %+v\n arena   %+v",
						opts, k, qi, q, sSt, aSt)
				}
				diveSteps += aSt.DiveSteps
				refDiveSteps += bSt.DiveSteps
			}
		}
	}
	if diveSteps >= refDiveSteps {
		t.Fatalf("banded dive stepped %d columns, the full-column dive %d", diveSteps, refDiveSteps)
	}
	t.Logf("dive steps: banded %d, full columns %d", diveSteps, refDiveSteps)
}

// matchesReferenceStats reports whether a, an arena search's Stats, equals
// ref, a seeded full-column reference's, in every field but DiveSteps,
// which may only be lower: the banded dive drops every child whose node
// bound reaches its k-th recorded leaf, and the sweep visits exactly the
// reference's nodes.
func matchesReferenceStats(a, ref Stats) bool {
	if a.DiveSteps > ref.DiveSteps {
		return false
	}
	a.DiveSteps = ref.DiveSteps
	return a == ref
}

// TestSearchKernelSteadyStateAllocs pins the arena DP kernel at zero
// steady-state heap allocations. It drives a held searcher directly (the
// way SearchTopK does after the sync.Pool get) so the measurement covers
// the kernel — the warm-start dive, columns, heap maintenance, path
// tracking, pruning — without the per-call result materialization. The
// queries are BenchmarkSearch's near and far ones.
func TestSearchKernelSteadyStateAllocs(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	ctx := context.Background()
	for _, q := range [][]string{
		strings.Fields("SELECT x FROM x x x = x AND x = x"),
		strings.Fields("SELECT * FROM x WHERE x x IN ( x x x , x x x , x x x , x x x x , x x x x )"),
	} {
		for _, opts := range []Options{{}, {DAP: true}, {UniformWeights: true}, {DisableBDB: true}} {
			for _, k := range []int{1, 3, 10} {
				var st Stats
				s := ix.getSearcher(q, k, opts, &st)
				order := append([]int(nil), s.partitionOrder(len(s.q))...)
				run := func() {
					if !opts.DAP {
						s.dive(ctx)
					}
					for _, n := range order {
						s.searchLen(n)
					}
					s.recycle()
				}
				run() // warm the column pools and buffer freelist
				if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
					t.Errorf("%d-token query, opts %+v k=%d: steady-state kernel allocs/op = %v, want 0",
						len(q), opts, k, allocs)
				}
				ix.putSearcher(s)
			}
		}
	}
}

// The INV scan path must also be allocation-free at steady state.
func TestINVKernelSteadyStateAllocs(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), true)
	q := strings.Fields("SELECT x FROM x WHERE x BETWEEN x AND x")
	var st Stats
	s := ix.getSearcher(q, 3, Options{INV: true}, &st)
	run := func() {
		s.searchINV()
		s.recycle()
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("steady-state INV allocs/op = %v, want 0", allocs)
	}
	ix.putSearcher(s)
}

// BenchmarkSearchTestScalePointer is the pointer-trie reference kernel on
// the identical corpus and query as the root package's
// BenchmarkSearch/near — the before/after for the arena flattening.
func BenchmarkSearchTestScalePointer(b *testing.B) {
	ix, roots := buildWithPointers(b, grammar.TestScale(), false)
	q := strings.Fields("SELECT x FROM x x x = x AND x = x")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.searchPointer(roots, q, 1, Options{}, true, true)
	}
}
