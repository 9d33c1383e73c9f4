package trieindex

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"speakql/internal/grammar"
)

// maskedQueries generates a mix of exact structures, perturbed structures,
// noisy token streams, and long literal-heavy garbles, exercising ties,
// long/short queries, unknown tokens, and the far regime where the k-th
// best distance is large and most of the index is in range.
func maskedQueries(ix *Index, n int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	var corpus [][]string
	ix.forEachStructure(func(path []tokenID) {
		toks := make([]string, len(path))
		for i, id := range path {
			toks[i] = ix.in.str(id)
		}
		corpus = append(corpus, toks)
	})
	vocab := []string{"SELECT", "FROM", "WHERE", "x", "AND", "=", "(", ")", "COUNT", "zzz"}
	qs := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		base := append([]string(nil), corpus[rng.Intn(len(corpus))]...)
		switch i % 4 {
		case 0: // exact structure: many zero-distance ties possible
		case 1: // perturbed: delete one token, insert one
			if len(base) > 1 {
				j := rng.Intn(len(base))
				base = append(base[:j], base[j+1:]...)
			}
			j := rng.Intn(len(base) + 1)
			base = append(base[:j], append([]string{vocab[rng.Intn(len(vocab))]}, base[j:]...)...)
		case 2: // noisy stream
			ln := 3 + rng.Intn(12)
			base = base[:0]
			for j := 0; j < ln; j++ {
				base = append(base, vocab[rng.Intn(len(vocab))])
			}
		default: // long literal-heavy garble: a value list dictated as runs of words
			// 20–40 tokens with a few misheard, the shape of the heaviest
			// real searches, e.g. SELECT * FROM x WHERE x x IN ( x x x ,
			// x x x , x x x , x x x x , x x x x ).
			ln := 20 + rng.Intn(21)
			base = append(base[:0], "SELECT", "*", "FROM", "x", "WHERE", "x", "x", "IN", "(")
			for len(base) < ln-1 {
				for r := 2 + rng.Intn(3); r > 0; r-- {
					base = append(base, "x")
				}
				base = append(base, ",")
			}
			base = append(base[:ln-1], ")")
			for g := rng.Intn(4); g > 0; g-- {
				base[rng.Intn(len(base))] = vocab[rng.Intn(len(vocab))]
			}
		}
		qs = append(qs, base)
	}
	return qs
}

// TestParallelMatchesSerial is the differential determinism test: for every
// query and several k values, the parallel search must return byte-identical
// results — same structures, same distances, same order — as the serial
// search, for every worker count.
func TestParallelMatchesSerial(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	queries := maskedQueries(ix, 60, 7)
	for _, workers := range []int{2, 3, 8} {
		for _, k := range []int{1, 3, 10} {
			for qi, q := range queries {
				serial, _ := ix.SearchTopK(q, k, Options{})
				par, _ := ix.SearchTopK(q, k, Options{Workers: workers})
				if len(serial) != len(par) {
					t.Fatalf("workers=%d k=%d q#%d %v: serial %d results, parallel %d",
						workers, k, qi, q, len(serial), len(par))
				}
				for i := range serial {
					if serial[i].Distance != par[i].Distance ||
						strings.Join(serial[i].Tokens, " ") != strings.Join(par[i].Tokens, " ") {
						t.Fatalf("workers=%d k=%d q#%d %v: result %d differs:\n serial  %v (%v)\n parallel %v (%v)",
							workers, k, qi, q, i,
							serial[i].Tokens, serial[i].Distance,
							par[i].Tokens, par[i].Distance)
					}
				}
			}
		}
	}
}

// Repeated parallel runs of the same query must agree with each other (no
// scheduling-dependent output), including under the DAP and uniform-weight
// option variants.
func TestParallelRepeatable(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	q := strings.Fields("SELECT x FROM x x x = x AND x > x")
	for _, opts := range []Options{
		{Workers: 4},
		{Workers: 4, DAP: true},
		{Workers: 4, UniformWeights: true},
	} {
		first, _ := ix.SearchTopK(q, 5, opts)
		for run := 0; run < 20; run++ {
			again, _ := ix.SearchTopK(q, 5, opts)
			if len(again) != len(first) {
				t.Fatalf("opts %+v run %d: %d results vs %d", opts, run, len(again), len(first))
			}
			for i := range first {
				if first[i].Distance != again[i].Distance ||
					strings.Join(first[i].Tokens, " ") != strings.Join(again[i].Tokens, " ") {
					t.Fatalf("opts %+v run %d: result %d drifted", opts, run, i)
				}
			}
		}
	}
}

// Parallel DAP must match serial DAP: the approximation is defined per
// partition, so partition-level parallelism cannot change which branches it
// keeps.
func TestParallelDAPMatchesSerial(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	for _, q := range maskedQueries(ix, 30, 11) {
		serial, _ := ix.SearchTopK(q, 3, Options{DAP: true})
		par, _ := ix.SearchTopK(q, 3, Options{DAP: true, Workers: 4})
		for i := range serial {
			if i >= len(par) || serial[i].Distance != par[i].Distance ||
				strings.Join(serial[i].Tokens, " ") != strings.Join(par[i].Tokens, " ") {
				t.Fatalf("DAP diverged on %v at %d: serial %v parallel %v", q, i, serial, par)
			}
		}
	}
}

func TestSearchContextAlreadyCancelled(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	for _, workers := range []int{0, 4} {
		rs, st := ix.SearchTopKContext(ctx, strings.Fields("SELECT x FROM x"), 3, Options{Workers: workers})
		if len(rs) != 0 {
			t.Errorf("workers=%d: cancelled search returned %d results", workers, len(rs))
		}
		if st.TriesSearched != 0 {
			t.Errorf("workers=%d: cancelled search searched %d tries", workers, st.TriesSearched)
		}
	}
	// No worker goroutine may outlive the call.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines grew from %d to %d after cancelled searches", before, n)
	}
}

func TestSearchContextDeadline(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	// An already-expired deadline behaves like cancellation: prompt return,
	// partial (here: empty) results, valid stats.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	t0 := time.Now()
	rs, _ := ix.SearchTopKContext(ctx, strings.Fields("SELECT x FROM x WHERE x = x"), 2, Options{Workers: 4})
	if el := time.Since(t0); el > time.Second {
		t.Errorf("expired-deadline search took %v", el)
	}
	if len(rs) != 0 {
		t.Errorf("expired-deadline search returned results: %v", rs)
	}
}

func TestSharedBoundRelax(t *testing.T) {
	b := newSharedBound()
	if !math.IsInf(b.load(), 1) {
		t.Fatalf("initial bound = %v", b.load())
	}
	b.relax(3.5)
	b.relax(7.0) // looser: ignored
	if b.load() != 3.5 {
		t.Errorf("bound = %v, want 3.5", b.load())
	}
	b.relax(1.2)
	if b.load() != 1.2 {
		t.Errorf("bound = %v, want 1.2", b.load())
	}
}

// Regression: popWorst must restore the heap property all the way down,
// not just at the root. The broken sift-down left heap[0] smaller than a
// deeper entry, which over-tightened the pruning threshold (and, via the
// shared bound, poisoned every concurrent partition's pruning).
func TestResultHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var h resultHeap
		k := 1 + rng.Intn(8)
		var kept []float64
		for i := 0; i < 50; i++ {
			d := float64(rng.Intn(20))
			if len(h) == k {
				if d >= h[0].dist {
					continue
				}
				h.popWorst()
			}
			h.push(heapEntry{dist: d, seq: uint64(i)})
			// Invariant: h[0] is the worst entry.
			for _, e := range h {
				if e.worse(h[0]) {
					t.Fatalf("trial %d: heap[0]=%v not worst (found %v)", trial, h[0].dist, e.dist)
				}
			}
		}
		for _, e := range h {
			kept = append(kept, e.dist)
		}
		_ = kept
	}
}

// Parallel search with more workers than partitions must clamp and still
// return correct results.
func TestParallelMoreWorkersThanPartitions(t *testing.T) {
	ix := indexOf(10, "SELECT x FROM x", "SELECT * FROM x")
	rs, _ := ix.SearchTopK(strings.Fields("SELECT x FROM x"), 2, Options{Workers: 16})
	if len(rs) != 2 || rs[0].Distance != 0 {
		t.Fatalf("results = %v", rs)
	}
	if got := strings.Join(rs[0].Tokens, " "); got != "SELECT x FROM x" {
		t.Errorf("best = %q", got)
	}
}

// TestConcurrentINVSearch runs INV searches from several goroutines on one
// freshly built index and checks every answer against a serial run on a
// second build of the same corpus. Build sorts the inverted lists once and
// nothing mutates them afterwards, so concurrent scans share them with no
// lock; run under -race. The corpus is inserted shuffled, so the lists
// really are out of length order until Build sorts them.
func TestConcurrentINVSearch(t *testing.T) {
	var corpus [][]string
	if err := grammar.Generate(grammar.TestScale(), func(toks []string) bool {
		corpus = append(corpus, append([]string(nil), toks...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(5)).Shuffle(len(corpus), func(i, j int) {
		corpus[i], corpus[j] = corpus[j], corpus[i]
	})
	build := func() *Index {
		b := NewBuilder(grammar.TestScale().MaxTokens, true)
		for _, toks := range corpus {
			b.Insert(toks)
		}
		return b.Build()
	}
	serial := build()
	queries := append(maskedQueries(serial, 40, 23),
		strings.Fields("SELECT x FROM x WHERE x BETWEEN x AND x"),
		strings.Fields("SELECT COUNT ( x ) FROM x ORDER BY x"))
	type answer struct {
		rs []Result
		st Stats
	}
	want := make([]answer, len(queries))
	usedINV := 0
	for i, q := range queries {
		want[i].rs, want[i].st = serial.SearchTopK(q, 3, Options{INV: true})
		if want[i].st.UsedINV {
			usedINV++
		}
	}
	if usedINV == 0 {
		t.Fatal("no query took the INV path")
	}

	ix := build()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range queries {
				qi := (i + 7*g) % len(queries)
				rs, st := ix.SearchTopK(queries[qi], 3, Options{INV: true})
				if !reflect.DeepEqual(rs, want[qi].rs) || st != want[qi].st {
					t.Errorf("goroutine %d q#%d %v: concurrent %v %+v, serial %v %+v",
						g, qi, queries[qi], rs, st, want[qi].rs, want[qi].st)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
