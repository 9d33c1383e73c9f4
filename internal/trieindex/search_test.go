package trieindex

import (
	"context"
	"math/rand"
	"reflect"
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

func TestSearchContextAlreadyCancelled(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs, st := ix.SearchTopKContext(ctx, strings.Fields("SELECT x FROM x"), 3, Options{})
	if len(rs) != 0 {
		t.Errorf("cancelled search returned %d results", len(rs))
	}
	if st.TriesSearched != 0 {
		t.Errorf("cancelled search searched %d tries", st.TriesSearched)
	}
}

func TestSearchContextDeadline(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	// An already-expired deadline behaves like cancellation: prompt return,
	// partial (here: empty) results, valid stats.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	t0 := time.Now()
	rs, _ := ix.SearchTopKContext(ctx, strings.Fields("SELECT x FROM x WHERE x = x"), 2, Options{})
	if el := time.Since(t0); el > time.Second {
		t.Errorf("expired-deadline search took %v", el)
	}
	if len(rs) != 0 {
		t.Errorf("expired-deadline search returned results: %v", rs)
	}
}

// Regression: popWorst must restore the heap property all the way down,
// not just at the root. The broken sift-down left heap[0] smaller than a
// deeper entry, which over-tightened the pruning threshold.
func TestResultHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		var h resultHeap
		k := 1 + rng.Intn(8)
		var kept []int32
		for i := 0; i < 50; i++ {
			d := int32(rng.Intn(20))
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

// TestConcurrentINVSearch runs searches from several goroutines on one
// freshly built index and checks every answer, results and Stats, against
// a serial run on a second build of the same corpus: one-shot INV, exact
// and DAP searches, so the exact ones run the warm-start dive on every
// goroutine while DAP searches, which do not dive, interleave with them on
// the index's searcher pool. Build sorts the inverted lists once and
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
	// answers runs every search of query qi on ix in a fixed order: INV,
	// exact, DAP.
	answers := func(ix *Index, qi int) []answer {
		var out []answer
		for _, opts := range []Options{{INV: true}, {}, {DAP: true}} {
			rs, st := ix.SearchTopK(queries[qi], 3, opts)
			out = append(out, answer{rs, st})
		}
		return out
	}
	want := make([][]answer, len(queries))
	usedINV := 0
	for qi := range queries {
		want[qi] = answers(serial, qi)
		if want[qi][0].st.UsedINV {
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
				got := answers(ix, qi)
				for j := range got {
					if !reflect.DeepEqual(got[j].rs, want[qi][j].rs) || got[j].st != want[qi][j].st {
						t.Errorf("goroutine %d q#%d %v search %d: concurrent %v %+v, serial %v %+v",
							g, qi, queries[qi], j, got[j].rs, got[j].st, want[qi][j].rs, want[qi][j].st)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
