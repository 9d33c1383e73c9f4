package trieindex

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"speakql/internal/grammar"
	"speakql/internal/metrics"
)

// buildIndex builds a test index over cfg's corpus, as structure.BuildIndex
// does for production.
func buildIndex(t testing.TB, cfg grammar.GenConfig, keepINV bool) *Index {
	t.Helper()
	ix, _ := buildWithPointers(t, cfg, keepINV)
	return ix
}

// indexOf builds a small index from space-separated structures.
func indexOf(maxLen int, structures ...string) *Index {
	b := NewBuilder(maxLen, false)
	for _, s := range structures {
		b.Insert(strings.Fields(s))
	}
	return b.Build()
}

func TestInsertAndTotal(t *testing.T) {
	ix := indexOf(10,
		"SELECT x FROM x",
		"SELECT x FROM x", // duplicate: ignored
		"SELECT * FROM x",
		"SELECT x FROM x WHERE x = x",
		"SELECT x FROM x WHERE x = x AND x = x", // over-long: ignored
		"")                                      // empty: ignored
	if ix.Total() != 3 {
		t.Fatalf("Total = %d, want 3 (duplicates, over-long, and empty ignored)", ix.Total())
	}
	if ix.NumTries() != 2 {
		t.Fatalf("NumTries = %d, want 2 (lengths 4 and 8)", ix.NumTries())
	}
}

func TestSearchExactMatch(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	queries := []string{
		"SELECT x FROM x",
		"SELECT * FROM x",
		"SELECT AVG ( x ) FROM x WHERE x = x",
		"SELECT x FROM x NATURAL JOIN x WHERE x BETWEEN x AND x",
		"SELECT x FROM x WHERE x = x ORDER BY x",
	}
	for _, q := range queries {
		res, _ := ix.Search(strings.Fields(q), Options{})
		if res.Distance != 0 {
			t.Errorf("Search(%q) distance = %v, want 0", q, res.Distance)
		}
		if strings.Join(res.Tokens, " ") != q {
			t.Errorf("Search(%q) = %q", q, strings.Join(res.Tokens, " "))
		}
	}
}

func TestSearchRunningExample(t *testing.T) {
	// Section 3.1's running example: masked transcript of "select sales from
	// employers wear name equals Jon" is SELECT x FROM x x x = x; the
	// closest structure is SELECT x FROM x WHERE x = x.
	ix := buildIndex(t, grammar.TestScale(), false)
	res, _ := ix.Search(strings.Fields("SELECT x FROM x x x = x"), Options{})
	if got := strings.Join(res.Tokens, " "); got != "SELECT x FROM x WHERE x = x" {
		t.Errorf("running example: got %q (dist %v)", got, res.Distance)
	}
}

// bruteTopK scores every indexed structure with
// metrics.WeightedTokenEditDistance in the sweep's visit order — tries in
// partitionOrder, depth-first within each — and stable-sorts them by
// distance, so equal distances keep the order the sweep enumerates them in.
func bruteTopK(ix *Index, q []string) []Result {
	var st Stats
	s := ix.getSearcher(q, 1, Options{}, &st)
	order := append([]int(nil), s.partitionOrder(len(q))...)
	ix.putSearcher(s)
	var all []Result
	path := make([]tokenID, 0, ix.maxLen)
	for _, n := range order {
		ix.tries[n].walkLeaves(0, n, &path, func(p []tokenID) {
			toks := ix.stringsOf(p)
			all = append(all, Result{Tokens: toks, Distance: metrics.WeightedTokenEditDistance(q, toks)})
		})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Distance < all[j].Distance })
	return all
}

// The search must return exactly the k best structures of the whole
// corpus, ties in visit order, at the distances metrics computes —
// verified against a brute-force scan, with BDB on and off.
func TestSearchMatchesBruteForce(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	rng := rand.New(rand.NewSource(11))
	vocab := []string{"SELECT", "FROM", "WHERE", "x", "=", "<", ">", "(", ")",
		",", "AND", "OR", "AVG", "COUNT", "ORDER", "BY", "LIMIT", "*", "."}
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		m := 1 + rng.Intn(14)
		q := make([]string, m)
		for i := range q {
			q[i] = vocab[rng.Intn(len(vocab))]
		}
		all := bruteTopK(ix, q)
		for _, k := range []int{1, 3, 10} {
			// BDB off must give the same list (it is accuracy-preserving).
			for _, opts := range []Options{{}, {DisableBDB: true}} {
				got, _ := ix.SearchTopK(q, k, opts)
				sameResults(t, fmt.Sprintf("%+v k=%d %v vs brute force", opts, k, q), got, all[:min(k, len(all))])
			}
		}
	}
}

// TestExactTies: ( x and x , are both exactly 4.7 from FROM FROM x AND
// (three keyword deletions and one splchar insertion), so the structure
// the sweep enumerates first — here the one inserted first — must rank
// first, in either insertion order, with both distances exactly 4.7.
func TestExactTies(t *testing.T) {
	q := strings.Fields("FROM FROM x AND")
	for _, structures := range [][]string{{"( x", "x ,"}, {"x ,", "( x"}} {
		ix, _ := indexWithPointers(4, structures...)
		rs, _ := ix.SearchTopK(q, 2, Options{})
		if len(rs) != 2 {
			t.Fatalf("inserted %q: %d results, want 2", structures, len(rs))
		}
		for i, r := range rs {
			if got := strings.Join(r.Tokens, " "); got != structures[i] || r.Distance != 4.7 {
				t.Errorf("inserted %q: result %d is %q at %v, want %q at 4.7",
					structures, i, got, r.Distance, structures[i])
			}
		}
	}
}

func TestSearchTopK(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	q := strings.Fields("SELECT x FROM x x x = x")
	rs, _ := ix.SearchTopK(q, 5, Options{})
	if len(rs) != 5 {
		t.Fatalf("topk returned %d results", len(rs))
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Distance < rs[i-1].Distance {
			t.Fatalf("topk not sorted: %v", rs)
		}
	}
	// Distinct structures.
	seen := map[string]bool{}
	for _, r := range rs {
		key := strings.Join(r.Tokens, " ")
		if seen[key] {
			t.Fatalf("duplicate structure in topk: %s", key)
		}
		seen[key] = true
	}
	// k=1 must equal Search.
	one, _ := ix.Search(q, Options{})
	if one.Distance != rs[0].Distance {
		t.Fatalf("Search dist %v != topk[0] dist %v", one.Distance, rs[0].Distance)
	}
}

func TestSearchTopKLargerThanCorpus(t *testing.T) {
	ix := indexOf(10, "SELECT x FROM x", "SELECT * FROM x")
	rs, _ := ix.SearchTopK(strings.Fields("SELECT x FROM x"), 10, Options{})
	if len(rs) != 2 {
		t.Fatalf("got %d results, want 2", len(rs))
	}
}

func TestSearchEmptyIndexAndQuery(t *testing.T) {
	if rs, _ := indexOf(10).SearchTopK(strings.Fields("SELECT x FROM x"), 3, Options{}); rs != nil {
		t.Fatalf("empty index returned %v", rs)
	}
	res, _ := indexOf(10, "SELECT x FROM x").Search(nil, Options{})
	if res.Distance != 4.4 {
		// inserting SELECT(1.2) x(1.0) FROM(1.2) x(1.0) from nothing
		t.Fatalf("empty query dist = %v, want 4.4", res.Distance)
	}
}

func TestBDBSkipsTries(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	q := strings.Fields("SELECT x FROM x")
	_, st := ix.Search(q, Options{})
	if st.TriesSkipped == 0 {
		t.Error("BDB skipped no tries for a short exact query")
	}
	_, stOff := ix.Search(q, Options{DisableBDB: true})
	if stOff.TriesSkipped != 0 {
		t.Error("BDB disabled but tries were skipped")
	}
	if stOff.NodesVisited < st.NodesVisited {
		t.Errorf("BDB visited more nodes (%d) than no-BDB (%d)",
			st.NodesVisited, stOff.NodesVisited)
	}
}

// TestNodeBound pins Proposition 1 at trie nodes on two hand-built indexes
// searched for x x x x with k=1 (visit counts exclude the root).
// DisableBDB prunes on min(col) alone, the rule TestArenaMatchesPointer
// holds to the pointer reference.
func TestNodeBound(t *testing.T) {
	q := strings.Fields("x x x x")
	cases := []struct {
		name        string
		structures  []string
		best        string
		dist        float64
		nodes       int // with the node bound
		nodesMinCol int // DisableBDB: min(col) alone
	}{
		// x x x foo sets the threshold to 2 (delete x, insert foo). The
		// SELECT child's column is [1.2 2.2 3.2 4.2 5.2] with three tokens
		// still to come: min(col) is 1.2, but cell 0 is one token off the
		// length diagonal (1.2+1) and cell 1 on it (2.2), so the bound 2.2
		// prunes the subtree min(col) walks.
		{"bound prunes", []string{"x x x foo", "SELECT x x x"}, "x x x foo", 2, 5, 8},
		// x x x x SELECT FROM sets the threshold to 2.4. The column at
		// SELECT FROM is [2.4 3.4 4.4 5.4 6.4] with four tokens to come, so
		// its minimum sits on the length diagonal: the bound equals min(col)
		// equals the threshold, and the prune must not let the subtree
		// through.
		{"diagonal tie", []string{"x x x x SELECT FROM", "SELECT FROM x x x x"}, "x x x x SELECT FROM", 2.4, 8, 8},
	}
	for _, tc := range cases {
		ix := indexOf(10, tc.structures...)
		for _, opts := range []Options{{}, {DisableBDB: true}} {
			rs, st := ix.SearchTopK(q, 1, opts)
			if len(rs) != 1 || strings.Join(rs[0].Tokens, " ") != tc.best || rs[0].Distance != tc.dist {
				t.Fatalf("%s %+v: results %v, want %q at %v", tc.name, opts, rs, tc.best, tc.dist)
			}
			want := tc.nodes
			if opts.DisableBDB {
				want = tc.nodesMinCol
			}
			if st.NodesVisited != want {
				t.Errorf("%s %+v: visited %d nodes, want %d", tc.name, opts, st.NodesVisited, want)
			}
		}
	}
}

// Reproduces the bidirectional-bounds walk-through of Figure 10: query
// A B A against tries of lengths 1–5; after finding distance 1 at length 2,
// every other trie is skipped.
func TestFigure10Example(t *testing.T) {
	ix := indexOf(50, "A", "A B", "A B C", "A B C D", "A B C D E")
	res, st := ix.Search([]string{"A", "B", "A"}, Options{})
	if got := strings.Join(res.Tokens, " "); got != "A B" {
		t.Fatalf("Figure 10: got %q, want A B", got)
	}
	if res.Distance != 1.0 {
		t.Fatalf("Figure 10: dist %v, want 1.0 (one literal delete)", res.Distance)
	}
	// Searched: length 3 (finds A B C at 2), length 2 (finds A B at 1),
	// then lengths 1, 4, 5 are all skipped by the bounds.
	if st.TriesSearched != 2 || st.TriesSkipped != 3 {
		t.Fatalf("Figure 10: searched=%d skipped=%d, want 2/3",
			st.TriesSearched, st.TriesSkipped)
	}
}

// TestDAPApproximation: a query whose closest structure differs only in a
// prime-superset token still yields a valid (possibly different) structure
// under DAP, and DAP visits no more nodes than the paper's Default arm,
// the exact sweep without the warm start. The warm-started exact search
// visits no more sweep nodes than that sweep either; on this query it
// visits fewer than DAP, which does not dive.
func TestDAPApproximation(t *testing.T) {
	ix, roots := buildWithPointers(t, grammar.TestScale(), false)
	q := strings.Fields("SELECT SUM ( x ) FROM x WHERE x = x")
	exact, stE := ix.Search(q, Options{})
	dap, stD := ix.Search(q, Options{DAP: true})
	if exact.Distance != 0 {
		t.Fatalf("exact search should find the structure exactly")
	}
	if dap.Distance < exact.Distance {
		t.Fatalf("DAP distance below exact minimum")
	}
	_, sweep := ix.searchPointer(roots, q, 1, Options{}, true, false)
	if stD.NodesVisited > sweep.NodesVisited {
		t.Errorf("DAP visited more nodes (%d) than the unseeded exact sweep (%d)",
			stD.NodesVisited, sweep.NodesVisited)
	}
	if stE.NodesVisited > sweep.NodesVisited {
		t.Errorf("warm-started exact search visited more sweep nodes (%d) than the unseeded sweep (%d)",
			stE.NodesVisited, sweep.NodesVisited)
	}
	t.Logf("sweep nodes: unseeded exact %d, warm-started exact %d (+%d dive steps), DAP %d",
		sweep.NodesVisited, stE.NodesVisited, stE.DiveSteps, stD.NodesVisited)
}

func TestINVPath(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), true)
	// Query mentions BETWEEN, a non-universal keyword → INV path applies.
	q := strings.Fields("SELECT x FROM x WHERE x BETWEEN x AND x")
	res, st := ix.Search(q, Options{INV: true})
	if !st.UsedINV {
		t.Fatal("INV was not used despite BETWEEN in query")
	}
	if st.InvScanned == 0 || st.InvScanned >= ix.Total() {
		t.Fatalf("INV scanned %d of %d structures", st.InvScanned, ix.Total())
	}
	if res.Distance != 0 {
		t.Fatalf("INV missed the exact structure: dist %v, got %v",
			res.Distance, res.Tokens)
	}
	// Query without any indexed keyword falls back to trie search.
	q2 := strings.Fields("SELECT x FROM x WHERE x = x")
	_, st2 := ix.Search(q2, Options{INV: true})
	if st2.UsedINV {
		t.Fatal("INV used with no non-universal keyword")
	}
}

func TestINVRequiresCorpus(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false) // keepINV = false
	q := strings.Fields("SELECT x FROM x WHERE x BETWEEN x AND x")
	res, st := ix.Search(q, Options{INV: true})
	if st.UsedINV {
		t.Fatal("INV used without a retained corpus")
	}
	if res.Distance != 0 {
		t.Fatal("fallback trie search failed")
	}
}

// Property: search distance is never negative and never exceeds the
// Proposition 1 upper bound (m+n)·W_K for the returned structure.
func TestSearchDistanceBounds(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	rng := rand.New(rand.NewSource(3))
	vocab := []string{"SELECT", "FROM", "WHERE", "x", "=", ",", "AND", "sales", "wear"}
	for trial := 0; trial < 40; trial++ {
		q := make([]string, 1+rng.Intn(12))
		for i := range q {
			q[i] = vocab[rng.Intn(len(vocab))]
		}
		res, _ := ix.Search(q, Options{})
		if res.Distance < 0 {
			t.Fatalf("negative distance for %v", q)
		}
		ub := float64(len(q)+len(res.Tokens)) * 12 / 10
		if res.Distance > ub {
			t.Fatalf("distance %v above upper bound %v", res.Distance, ub)
		}
	}
}

func TestMemoryStats(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	st := ix.Memory()
	if st.Structures != ix.Total() {
		t.Errorf("Structures = %d, want %d", st.Structures, ix.Total())
	}
	if st.Nodes <= st.Structures {
		t.Errorf("Nodes %d should exceed structure count %d", st.Nodes, st.Structures)
	}
	sumS, sumN := 0, 0
	for _, ls := range st.PerLength {
		sumS += ls.Structures
		sumN += ls.Nodes
	}
	if sumS != st.Structures || sumN != st.Nodes {
		t.Errorf("per-length totals disagree: %d/%d vs %d/%d",
			sumS, sumN, st.Structures, st.Nodes)
	}
	// Prefix sharing: nodes must be far fewer than total tokens inserted.
	totalTokens := 0
	_ = grammar.Generate(grammar.TestScale(), func(toks []string) bool {
		totalTokens += len(toks)
		return true
	})
	if st.Nodes >= totalTokens {
		t.Errorf("no prefix sharing: %d nodes for %d tokens", st.Nodes, totalTokens)
	}
}

func TestUniformWeightsAblation(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	// Under uniform weights the distance for a keyword substitution equals
	// a literal substitution; under class weights they differ.
	q := strings.Fields("SELECT x FROM x wear x = x") // "wear" garbage token
	def, _ := ix.Search(q, Options{})
	uni, _ := ix.Search(q, Options{UniformWeights: true})
	if def.Distance == uni.Distance {
		t.Logf("distances coincide for this query (%v) — acceptable", def.Distance)
	}
	if uni.Distance <= 0 || def.Distance <= 0 {
		t.Fatal("expected nonzero distances")
	}
	// Uniform distance of an insert+delete pair is exactly 2.
	ix2 := indexOf(10, "SELECT x FROM x")
	r, _ := ix2.Search(strings.Fields("SELECT x x FROM x"), Options{UniformWeights: true})
	if r.Distance != 1 {
		t.Errorf("uniform delete cost = %v, want 1", r.Distance)
	}
	r, _ = ix2.Search(strings.Fields("x FROM x"), Options{UniformWeights: true})
	if r.Distance != 1 { // SELECT inserted at cost 1 (not 1.2)
		t.Errorf("uniform keyword insert cost = %v, want 1", r.Distance)
	}
}
