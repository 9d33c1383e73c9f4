package literal

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// wordPool mixes schema-ish identifiers, phonetically-colliding spellings
// (Jon/John, Smith/Smyth collapse to one Metaphone code), digit-bearing
// codes, and noise words — enough collisions that BK winner sets routinely
// hold several groups and several entries per group.
var wordPool = []string{
	"Employees", "employes", "Salaries", "salary", "FirstName", "first",
	"name", "LastName", "last", "Titles", "title", "Departments",
	"department", "DeptEmp", "HireDate", "hire", "date", "BirthDate",
	"Jon", "John", "Jahn", "Smith", "Smyth", "Smithe", "Catherine",
	"Katherine", "Kathryn", "Engineer", "Enginere", "Senior", "Staff",
	"Manager", "Technique", "Leader", "d001", "d002", "d009", "emp",
	"no", "number", "gender", "from", "where", "select", "the", "of",
	"pizza", "Pizza Hut", "pisa hut", "cafe", "Cafe Noir", "bar",
}

func randWords(rng *rand.Rand, min, max int) []string {
	n := min + rng.Intn(max-min+1)
	out := make([]string, n)
	for i := range out {
		out[i] = wordPool[rng.Intn(len(wordPool))]
	}
	return out
}

// checkIndexMatchesNaive runs one window against one set on both paths and
// fails unless the ranked top-k AND the consumed transcript position agree
// exactly — the tie-break rules (raw distance, then name) and the
// position-consumption rule are part of the contract.
func checkIndexMatchesNaive(t *testing.T, set *catSet, window []string, base, k int) {
	t.Helper()
	wantTop, wantPos := voteNaive(window, base, set.entries, k)
	gotTop, gotPos := vote(window, base, set, k)
	if !reflect.DeepEqual(gotTop, wantTop) || gotPos != wantPos {
		t.Fatalf("indexed vote diverged from naive\nwindow=%q entries=%d k=%d\n naive: top=%q pos=%d\n index: top=%q pos=%d",
			window, len(set.entries), k, wantTop, wantPos, gotTop, gotPos)
	}
}

// TestVoteIndexMatchesNaive is the differential property test: over many
// random catalogs and windows, the BK-indexed kernel must return rankings
// and consumed positions bit-identical to the retained naive full scan.
func TestVoteIndexMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 400; iter++ {
		names := randWords(rng, 1, 60)
		set := buildSet(names)
		window := randWords(rng, 0, 8)
		// Occasionally corrupt a window token so candidates sit at a
		// nonzero distance from every code.
		if len(window) > 0 && rng.Intn(3) == 0 {
			window[rng.Intn(len(window))] += "x"
		}
		base := rng.Intn(5)
		k := 1 + rng.Intn(4)
		checkIndexMatchesNaive(t, &set, window, base, k)
	}
}

// TestVoteIndexMatchesNaiveSingletons covers the degenerate shapes the
// random sweep can miss: one-entry sets, all-identical codes (a single BK
// node), and an empty window.
func TestVoteIndexMatchesNaiveSingletons(t *testing.T) {
	cases := []struct {
		names  []string
		window []string
	}{
		{[]string{"Employees"}, []string{"employs"}},
		{[]string{"Jon", "John", "Jahn"}, []string{"jon"}}, // one phonetic group
		{[]string{"Jon", "John"}, nil},
		{[]string{"a", "b", "c", "d"}, []string{"zzz", "qqq"}},
	}
	for _, c := range cases {
		set := buildSet(c.names)
		checkIndexMatchesNaive(t, &set, c.window, 0, 3)
	}
}

// FuzzVoteIndexMatchesNaive drives the same differential check from fuzzed
// seeds, letting the fuzzer explore catalog/window shapes the fixed-seed
// sweep does not.
func FuzzVoteIndexMatchesNaive(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 1729, 99991} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		set := buildSet(randWords(rng, 1, 40))
		window := randWords(rng, 0, 6)
		checkIndexMatchesNaive(t, &set, window, rng.Intn(3), 1+rng.Intn(3))
	})
}

// TestVoteSteadyStateAllocs pins the indexed voting kernel at zero heap
// allocations once its pooled scratch has warmed up — the same discipline
// as the structure-search kernel (trieindex arena test). Drives s.run
// directly: the public vote() copies the scratch-backed result into a
// caller-owned slice, which allocates by design.
func TestVoteSteadyStateAllocs(t *testing.T) {
	names := make([]string, 0, 300)
	for i := 0; i < 100; i++ {
		names = append(names, fmt.Sprintf("Val%s%d", wordPool[i%len(wordPool)], i))
	}
	names = append(names, wordPool...)
	set := buildSet(names)
	window := []string{"first", "name", "jon", "smith", "employes"}

	s := getVoteScratch()
	defer putVoteScratch(s)
	for i := 0; i < 3; i++ { // warm the arenas to steady-state capacity
		s.run(window, 0, &set, 3)
	}
	if n := testing.AllocsPerRun(100, func() {
		s.run(window, 0, &set, 3)
	}); n != 0 {
		t.Fatalf("steady-state vote kernel allocated %.1f times per run, want 0", n)
	}
}

// TestVoteBatchMatchesPerToken pins the shipped pass (encoding dedup,
// exact-code fast path, one BK walk per distinct encoding) to the frozen
// per-token walker:
// ranked top-k and consumed position must agree exactly over random
// catalogs and windows — including windows with repeated tokens, which
// exercise the dedup path, and in-catalog tokens, which exercise the
// exact-hit path.
func TestVoteBatchMatchesPerToken(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	bs := getVoteScratch()
	ps := getVoteScratch()
	defer putVoteScratch(bs)
	defer putVoteScratch(ps)
	for iter := 0; iter < 600; iter++ {
		names := randWords(rng, 1, 60)
		set := buildSet(names)
		window := randWords(rng, 1, 8)
		switch rng.Intn(4) {
		case 0: // corrupt a token: nonzero distance to every code
			window[rng.Intn(len(window))] += "x"
		case 1: // force a verbatim repeat: the dedup path must collapse it
			window[rng.Intn(len(window))] = window[rng.Intn(len(window))]
		}
		base := rng.Intn(5)
		k := 1 + rng.Intn(4)
		wantTop, wantPos := ps.runPerToken(window, base, &set, k)
		wantCopy := append([]string(nil), wantTop...)
		gotTop, gotPos := bs.run(window, base, &set, k)
		if !reflect.DeepEqual(append([]string(nil), gotTop...), wantCopy) || gotPos != wantPos {
			t.Fatalf("batched vote diverged from per-token walker\nwindow=%q entries=%d k=%d\n per-token: top=%q pos=%d\n batched:   top=%q pos=%d",
				window, len(set.entries), k, wantCopy, wantPos, gotTop, gotPos)
		}
	}
}

// TestVoteScratchReuseAcrossSets reuses one scratch against sets of very
// different sizes back-to-back: a stale slot row surviving the end-of-run
// reset would corrupt the smaller set's counters.
func TestVoteScratchReuseAcrossSets(t *testing.T) {
	big := buildSet(randWords(rand.New(rand.NewSource(5)), 80, 120))
	small := buildSet([]string{"Jon", "Smith"})
	s := getVoteScratch()
	defer putVoteScratch(s)
	for i := 0; i < 3; i++ {
		s.run([]string{"jon", "smith", "name"}, 0, &big, 3)
		wantTop, wantPos := voteNaive([]string{"jon"}, 2, small.entries, 2)
		gotTop, gotPos := s.run([]string{"jon"}, 2, &small, 2)
		if !reflect.DeepEqual(append([]string(nil), gotTop...), wantTop) || gotPos != wantPos {
			t.Fatalf("iteration %d: scratch reuse diverged: got %q pos=%d, want %q pos=%d",
				i, gotTop, gotPos, wantTop, wantPos)
		}
	}
}
