package core

import (
	"fmt"
	"sync"
	"testing"

	"speakql/internal/grammar"
	"speakql/internal/obs"
	"speakql/internal/trieindex"
)

func resOf(s string) []trieindex.Result {
	return []trieindex.Result{{Tokens: []string{s}, Distance: 1}}
}

func TestSearchLRUEvictionOrder(t *testing.T) {
	c := NewSearchLRU(3)
	c.Put("a", resOf("a"), trieindex.Stats{})
	c.Put("b", resOf("b"), trieindex.Stats{})
	c.Put("c", resOf("c"), trieindex.Stats{})
	// Touch "a" so "b" becomes least recently used.
	if _, _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("d", resOf("d"), trieindex.Stats{}) // evicts b
	if _, _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if rs, _, ok := c.Get(k); !ok || rs[0].Tokens[0] != k {
			t.Fatalf("%s missing or wrong after eviction", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 || st.Capacity != 3 {
		t.Fatalf("stats = %+v", st)
	}
	// Re-putting refreshes recency: "a" is oldest-inserted but was touched,
	// re-put "c" so "a" is LRU? No: order after gets above is d,c,a (a,c,d
	// each Get-touched in that order) → LRU is a.
	c.Put("e", resOf("e"), trieindex.Stats{})
	if _, _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted second")
	}
}

func TestSearchLRUPutRefreshesValue(t *testing.T) {
	c := NewSearchLRU(2)
	c.Put("k", resOf("old"), trieindex.Stats{})
	c.Put("k", resOf("new"), trieindex.Stats{NodesVisited: 7})
	if c.Len() != 1 {
		t.Fatalf("duplicate key grew cache to %d", c.Len())
	}
	rs, st, ok := c.Get("k")
	if !ok || rs[0].Tokens[0] != "new" || st.NodesVisited != 7 {
		t.Fatalf("refresh lost: %v %+v %v", rs, st, ok)
	}
}

func TestSearchLRUPurgeAndHitRate(t *testing.T) {
	c := NewSearchLRU(4)
	c.Put("x", resOf("x"), trieindex.Stats{})
	c.Get("x")
	c.Get("missing")
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d", st.Hits, st.Misses)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", st.HitRate())
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("purge left %d entries", c.Len())
	}
	if _, _, ok := c.Get("x"); ok {
		t.Fatal("purged entry still present")
	}
	if got := c.Stats(); got.Hits != 1 { // counters survive purge
		t.Fatalf("purge reset counters: %+v", got)
	}
}

// Concurrent mixed gets/puts must be race-free (run under -race) and keep
// the size bound.
func TestSearchLRUConcurrent(t *testing.T) {
	c := NewSearchLRU(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%40)
				if _, _, ok := c.Get(k); !ok {
					c.Put(k, resOf(k), trieindex.Stats{})
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses != 8*500 {
		t.Fatalf("lost lookups: hits %d + misses %d != %d", st.Hits, st.Misses, 8*500)
	}
}

// A cached engine must return outputs identical to an uncached one — on the
// miss that fills the cache and on every hit after it — while the hit
// counters actually move.
func TestEngineCachedMatchesUncached(t *testing.T) {
	cfg := Config{Grammar: grammar.TestScale()}
	plain, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StructureCacheSize = 64
	cached, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cached.SearchCache() == nil {
		t.Fatal("cache not installed")
	}
	transcripts := []string{
		"select name from employees where salary equals 100",
		"select star from departments",
		"select name from employees where salary equals 100", // repeat → hit
		"count employees",
	}
	for round := 0; round < 2; round++ {
		for _, tr := range transcripts {
			a := plain.CorrectTopK(tr, 3)
			b := cached.CorrectTopK(tr, 3)
			if len(a.Candidates) != len(b.Candidates) {
				t.Fatalf("round %d %q: %d vs %d candidates", round, tr, len(a.Candidates), len(b.Candidates))
			}
			for i := range a.Candidates {
				if a.Candidates[i].SQL != b.Candidates[i].SQL ||
					a.Candidates[i].StructureDistance != b.Candidates[i].StructureDistance {
					t.Fatalf("round %d %q candidate %d differs:\n  %q (%v)\n  %q (%v)",
						round, tr, i,
						a.Candidates[i].SQL, a.Candidates[i].StructureDistance,
						b.Candidates[i].SQL, b.Candidates[i].StructureDistance)
				}
			}
		}
	}
	st := cached.SearchCache().Stats()
	if st.Hits == 0 {
		t.Fatal("repeated transcripts produced no cache hits")
	}
	if st.Misses == 0 {
		t.Fatal("first-seen transcripts produced no cache misses")
	}
}

// The search-work counters count trie searches that ran. Two identical
// corrections through a cache-enabled engine search once, so
// search.nodes_visited grows once.
func TestSearchCountersCountSearchesThatRan(t *testing.T) {
	nodes := func() int64 { return obs.Default().Snapshot().Counters["search.nodes_visited"] }
	const a = "select name from employees where salary equals 100"

	cached, err := NewEngine(Config{Grammar: grammar.TestScale(), StructureCacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	n0 := nodes()
	cached.Correct(a)
	n1 := nodes()
	cached.Correct(a)
	n2 := nodes()
	if n1 == n0 {
		t.Fatal("the first correction recorded no search work")
	}
	if n2 != n1 {
		t.Errorf("a search-cache hit grew search.nodes_visited by %d", n2-n1)
	}
}
