package literal

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"speakql/internal/dataset"
	"speakql/internal/metrics"
	"speakql/internal/phonetic"
	"speakql/internal/sqlengine"
)

// randomNames draws n names from a small alphabet-ish pool so deltas
// collide with existing entries, share phonetic codes, and take codes'
// last members, leaving tombstone groups.
func randomNames(rng *rand.Rand, n int) []string {
	pool := []string{
		"John", "Jon", "Joan", "Jane", "Smith", "Smyth", "Schmidt",
		"Salary", "Celery", "City", "Sity", "Phoenix", "Fenix", "fenix",
		"Employees", "Employers", "Department", "d001", "d002", "Review",
		"Stars", "Star", "Gender", "Genre", "Title", "Total",
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pool[rng.Intn(len(pool))])
	}
	return out
}

// finalNames computes the name list a delta leaves behind, mirroring
// ApplyDelta's exact-name add/remove semantics.
func finalNames(base, add, remove []string) []string {
	rm := map[string]bool{}
	for _, n := range remove {
		rm[n] = true
	}
	seen := map[string]bool{}
	var out []string
	for _, n := range base {
		if n == "" || rm[n] || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	// Removes apply to the existing catalog, adds after — so a name in both
	// lists ends up present, matching ApplyDelta.
	for _, n := range add {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	return out
}

// requireSetInvariants checks the structural invariants voting depends on.
// A group with no member is a tombstone: it must be counted as dead, stay
// mapped by byCode, never be returned by the exact-code probe, and keep its
// node in the tree; after every delta the dead share is within
// compactShare, and an empty set has no tree.
func requireSetInvariants(t *testing.T, set *catSet) {
	t.Helper()
	for i := 1; i < len(set.entries); i++ {
		if set.entries[i-1].Name >= set.entries[i].Name {
			t.Fatalf("entries not strictly sorted at %d: %q >= %q",
				i, set.entries[i-1].Name, set.entries[i].Name)
		}
	}
	if len(set.members) != len(set.entries) {
		t.Fatalf("members arena has %d slots for %d entries", len(set.members), len(set.entries))
	}
	if len(set.entries) == 0 && len(set.bk) != 0 {
		t.Fatalf("empty set keeps a %d-node tree", len(set.bk))
	}
	if len(set.byCode) != len(set.groups) {
		t.Fatalf("byCode maps %d codes for %d groups", len(set.byCode), len(set.groups))
	}
	seen := make([]bool, len(set.entries))
	codes := map[string]bool{}
	total := int32(0)
	dead := 0
	for gi, g := range set.groups {
		if gj, ok := set.byCode[g.code]; !ok || gj != int32(gi) {
			t.Fatalf("group %d (%q) mapped by byCode to %d (present %v)", gi, g.code, gj, ok)
		}
		if _, live := set.liveGroup([]byte(g.code)); live != (g.num > 0) {
			t.Fatalf("group %d (%q) with %d members: exact-code probe says live=%v", gi, g.code, g.num, live)
		}
		if g.num == 0 {
			dead++
		} else if len(g.code) > set.maxCode {
			t.Fatalf("live code %q longer than maxCode %d", g.code, set.maxCode)
		}
		if codes[g.code] {
			t.Fatalf("duplicate group code %q", g.code)
		}
		codes[g.code] = true
		if g.first != total {
			t.Fatalf("group %q first %d, want %d", g.code, g.first, total)
		}
		total += g.num
		for _, m := range set.members[g.first : g.first+g.num] {
			if seen[m] {
				t.Fatalf("entry %d in two groups", m)
			}
			seen[m] = true
			if set.entries[m].Phonetic != g.code {
				t.Fatalf("entry %q in group %q but encodes to %q",
					set.entries[m].Name, g.code, set.entries[m].Phonetic)
			}
		}
	}
	if int(total) != len(set.entries) {
		t.Fatalf("groups cover %d of %d entries", total, len(set.entries))
	}
	if dead != set.dead {
		t.Fatalf("%d groups have no member, set counts %d dead", dead, set.dead)
	}
	if dead*compactShare > len(set.groups)-dead {
		t.Fatalf("%d dead groups beside %d live ones: past the compaction share 1/%d",
			dead, len(set.groups)-dead, compactShare)
	}
	if len(set.groups) > 0 && len(set.bk) != len(set.groups) {
		t.Fatalf("bk has %d nodes for %d groups", len(set.bk), len(set.groups))
	}
	// Node i of the tree covers group i: below an ancestor's child at edge
	// e, every node's code lies at distance e from the ancestor's code, each
	// maxChild is its node's largest child edge, and the walk from the root
	// reaches every node once.
	type hop struct{ node, edge int32 } // an ancestor and the edge taken below it
	var walk func(ni int32, path []hop) int
	walk = func(ni int32, path []hop) int {
		for _, h := range path {
			a, x := set.groups[h.node].code, set.groups[ni].code
			if d := int32(metrics.CharEditDistance(a, x)); d != h.edge {
				t.Fatalf("bk node %d (%q) lies %d from ancestor %d (%q), below its edge %d",
					ni, x, d, h.node, a, h.edge)
			}
		}
		n, maxChild := 1, int32(0)
		for ch := set.bk[ni].firstChild; ch != -1; ch = set.bk[ch].nextSibling {
			maxChild = max(maxChild, set.bk[ch].edge)
			n += walk(ch, append(path, hop{ni, set.bk[ch].edge}))
		}
		if set.bk[ni].maxChild != maxChild {
			t.Fatalf("bk node %d maxChild %d, want %d", ni, set.bk[ni].maxChild, maxChild)
		}
		return n
	}
	if len(set.bk) > 0 {
		if n := walk(0, nil); n != len(set.bk) {
			t.Fatalf("walk from the root reached %d of %d bk nodes", n, len(set.bk))
		}
	}
}

// sameRankings asserts indexed voting over two sets returns identical
// top-k lists for a spread of windows — the differential acceptance check:
// rankings depend only on the entry population, so an incrementally
// updated set must match a from-scratch rebuild exactly. Extra windows
// join the fixed ones.
func sameRankings(t *testing.T, got, want *catSet, rng *rand.Rand, extra ...[]string) {
	t.Helper()
	windows := [][]string{
		{"jon"}, {"smith"}, {"celery"}, {"fee", "nix"}, {"d", "zero", "zero", "two"},
		{"employ", "ease"}, {"star"}, {"gen", "der"}, {"total"}, {"sit", "tee"},
		randomNames(rng, 3), randomNames(rng, 2),
	}
	for _, w := range append(windows, extra...) {
		for _, k := range []int{1, 3, 5} {
			gotTop, gotPos := vote(w, 0, got, k)
			wantTop, wantPos := vote(w, 0, want, k)
			if !reflect.DeepEqual(gotTop, wantTop) || gotPos != wantPos {
				t.Fatalf("window %v k=%d: incremental %v@%d, rebuild %v@%d",
					w, k, gotTop, gotPos, wantTop, wantPos)
			}
			naiveTop, naivePos := voteNaive(w, 0, got.entries, k)
			if !reflect.DeepEqual(gotTop, naiveTop) || gotPos != naivePos {
				t.Fatalf("window %v k=%d: indexed %v@%d, naive %v@%d",
					w, k, gotTop, gotPos, naiveTop, naivePos)
			}
		}
	}
}

// TestApplyDeltaMatchesRebuild drives random base catalogs through random
// deltas and pins the incremental result against a full rebuild: identical
// entry populations, intact invariants, and bit-identical vote rankings.
func TestApplyDeltaMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 40; round++ {
		base := randomNames(rng, rng.Intn(12))
		add := randomNames(rng, rng.Intn(6))
		remove := randomNames(rng, rng.Intn(6))
		cat := NewCatalog(nil, nil, base)
		updated, _ := cat.ApplyDelta(CatalogDelta{AddValues: add, RemoveValues: remove})
		rebuilt := NewCatalog(nil, nil, finalNames(base, add, remove))

		gotNames := updated.Values()
		wantNames := rebuilt.Values()
		if len(gotNames) != len(wantNames) || !reflect.DeepEqual(gotNames, wantNames) {
			t.Fatalf("round %d: entries %v, want %v (base=%v add=%v remove=%v)",
				round, gotNames, wantNames, base, add, remove)
		}
		requireSetInvariants(t, &updated.values)
		sameRankings(t, &updated.values, &rebuilt.values, rng)
	}
}

// TestApplyDeltaChainMatchesRebuild applies deltas to the result of
// earlier deltas, so tombstones build up, revive and are compacted away,
// and pins every checked step against a fresh build over the same names.
func TestApplyDeltaChainMatchesRebuild(t *testing.T) {
	check := func(t *testing.T, label string, got *Catalog, names []string, rng *rand.Rand, extra ...[]string) {
		t.Helper()
		want := NewCatalog(got.Tables(), got.Attributes(), names)
		if !slices.Equal(got.Values(), want.Values()) {
			t.Fatalf("%s: values %q, want %q", label, got.Values(), want.Values())
		}
		requireSetInvariants(t, &got.values)
		sameRankings(t, &got.values, &want.values, rng, extra...)
	}

	t.Run("small pool", func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		var tombstoned, revived, compacted, refilled int
		for chain := 0; chain < 40; chain++ {
			names := finalNames(randomNames(rng, rng.Intn(20)), nil, nil)
			cat := NewCatalog(nil, nil, names)
			for step := 0; step < 30; step++ {
				add, remove := randomNames(rng, rng.Intn(4)), randomNames(rng, rng.Intn(5))
				if step == 20 { // empty the set; the steps after refill it
					add, remove = nil, names
				}
				next, st := cat.ApplyDelta(CatalogDelta{AddValues: add, RemoveValues: remove})
				names = finalNames(names, add, remove)
				label := fmt.Sprintf("chain %d step %d (add %q, remove %q)", chain, step, add, remove)
				check(t, label, next, names, rng, add, remove)
				if len(names) == 0 && !reflect.DeepEqual(next.values, buildSet(nil)) {
					t.Fatalf("%s: emptied set is not the empty set: %+v", label, next.values)
				}
				if len(cat.values.entries) == 0 && len(names) > 0 {
					refilled++
				}
				if st.BKRebuilt > 0 {
					compacted++
				} else {
					if next.values.dead > cat.values.dead {
						tombstoned++
					}
					for gi, g := range cat.values.groups {
						if g.num == 0 && next.values.groups[gi].num > 0 {
							revived++
						}
					}
				}
				cat = next
			}
		}
		if tombstoned == 0 || revived == 0 || compacted == 0 || refilled == 0 {
			t.Fatalf("chains tombstoned %d, revived %d, compacted %d and refilled %d times; want each at least once",
				tombstoned, revived, compacted, refilled)
		}
	})

	t.Run("yelp retire chain", func(t *testing.T) {
		// Shaped like popular's PATCH: add a value and retire the value the
		// previous PATCH added. Unlike popular, whose added names share 66
		// codes, every step adds a code new to the set, so each one grows
		// the tree and leaves a tombstone; 820 steps cross a compaction on
		// the 3,017 value codes.
		const steps = 820
		yelp := yelpTenant()
		cat := NewCatalog(yelp.TableNames(), yelp.AttributeNames(), yelp.StringValues(0))
		codes := map[string]bool{}
		for _, v := range cat.Values() {
			codes[phonetic.Encode(v)] = true
		}
		rng := rand.New(rand.NewSource(31))
		var fresh []string
		for len(fresh) < steps {
			b := []byte{"BDFGKLMNPRSTVZ"[rng.Intn(14)]}
			for n := 4 + rng.Intn(5); len(b) < n; {
				b = append(b, "aeiou"[rng.Intn(5)], "bdfgklmnprstvz"[rng.Intn(14)])
			}
			if name := string(b); !codes[phonetic.Encode(name)] {
				codes[phonetic.Encode(name)] = true
				fresh = append(fresh, name)
			}
		}
		names := cat.Values()
		compactions := 0
		for step := 1; step <= steps; step++ {
			d := CatalogDelta{AddValues: fresh[step-1 : step]}
			if step > 1 {
				d.RemoveValues = fresh[step-2 : step-1]
			}
			next, st := cat.ApplyDelta(d)
			before := names
			names = finalNames(names, d.AddValues, d.RemoveValues)
			label := fmt.Sprintf("step %d (add %q, remove %q)", step, d.AddValues, d.RemoveValues)
			// Windows: the name just added (live), the one just retired
			// (dead) and an older one (dead until a compaction drops it).
			windows := [][]string{{strings.ToLower(fresh[step-1])}, {strings.ToLower(fresh[max(step-2, 0)])},
				{strings.ToLower(fresh[step/2])}}
			switch {
			case st.BKRebuilt > 0:
				compactions++
				if next.values.dead != 0 || cat.values.dead == 0 {
					t.Fatalf("%s: compaction took %d dead groups to %d", label, cat.values.dead, next.values.dead)
				}
				check(t, label+", before the compaction", cat, before, rng, windows...)
				check(t, label+", after the compaction", next, names, rng, windows...)
			case st.BKInserted != 1 || st.Added != 1 || st.Removed != len(d.RemoveValues):
				t.Fatalf("%s: stats %+v, want 1 code inserted into a copied tree", label, st)
			case step%100 == 0:
				check(t, label, next, names, rng, windows...)
			}
			cat = next
		}
		if compactions == 0 {
			t.Fatalf("%d retire deltas never compacted; %d dead groups left", steps, cat.values.dead)
		}
	})
}

// TestApplyDeltaIsCopyOnWrite pins that the old catalog is untouched and
// that untouched category sets are shared, not copied.
func TestApplyDeltaIsCopyOnWrite(t *testing.T) {
	cat := NewCatalog([]string{"Employees"}, []string{"Salary"}, []string{"John", "Jon"})
	before := cat.Values()
	updated, st := cat.ApplyDelta(CatalogDelta{AddValues: []string{"Joan"}, RemoveValues: []string{"Jon"}})
	if !reflect.DeepEqual(cat.Values(), before) {
		t.Fatalf("receiver mutated: %v -> %v", before, cat.Values())
	}
	if want := []string{"Joan", "John"}; !reflect.DeepEqual(updated.Values(), want) {
		t.Fatalf("updated values %v, want %v", updated.Values(), want)
	}
	if st.Added != 1 || st.Removed != 1 {
		t.Fatalf("stats %+v, want 1 added / 1 removed", st)
	}
	// Untouched sets are shared with the receiver (same backing arrays).
	if len(updated.tables.entries) > 0 && &updated.tables.entries[0] != &cat.tables.entries[0] {
		t.Fatalf("untouched tables set was copied")
	}
	if len(updated.attrs.entries) > 0 && &updated.attrs.entries[0] != &cat.attrs.entries[0] {
		t.Fatalf("untouched attrs set was copied")
	}
}

// TestApplyDeltaBKReuse pins the BK-tree regimes: a membership-only change
// shares the tree, a new code copies it and grows it, a lost code
// tombstones its node in a shared tree, re-adding that code revives it, and
// a delta that leaves too many tombstones compacts the set.
func TestApplyDeltaBKReuse(t *testing.T) {
	// John and Jon share one Metaphone code; adding Jon touches only that
	// group's membership, so the distinct-code set (and the tree) is
	// unchanged.
	cat := NewCatalog(nil, nil, []string{"John", "Smith", "Salary", "Title", "Gender"})
	grown, st := cat.ApplyDelta(CatalogDelta{AddValues: []string{"Jon"}})
	if st.BKReused != 1 || st.BKInserted != 0 || st.BKRebuilt != 0 {
		t.Fatalf("same-codes delta: stats %+v, want bk_reused=1", st)
	}
	if &grown.values.bk[0] != &cat.values.bk[0] {
		t.Fatalf("same-codes delta: tree not shared")
	}
	if st.Added != 1 {
		t.Fatalf("same-codes delta: added %d names, want 1", st.Added)
	}

	// Phoenix brings a brand-new code: the tree is copied and grown.
	bigger, st := grown.ApplyDelta(CatalogDelta{AddValues: []string{"Phoenix"}})
	if st.BKInserted != 1 || st.BKRebuilt != 0 {
		t.Fatalf("new-code delta: stats %+v, want bk_inserted=1", st)
	}
	if len(bigger.values.bk) != len(grown.values.bk)+1 {
		t.Fatalf("new-code delta: %d nodes, want %d", len(bigger.values.bk), len(grown.values.bk)+1)
	}
	requireSetInvariants(t, &bigger.values)

	// Removing the last member of a code tombstones its group: the tree and
	// the code map are shared, and the dead node stays in the tree.
	rng := rand.New(rand.NewSource(3))
	smaller, st := bigger.ApplyDelta(CatalogDelta{RemoveValues: []string{"Smith"}})
	if st.BKReused != 1 || st.BKInserted != 0 || st.BKRebuilt != 0 {
		t.Fatalf("code-loss delta: stats %+v, want bk_reused=1 (a tombstone)", st)
	}
	if &smaller.values.bk[0] != &bigger.values.bk[0] || smaller.values.dead != 1 {
		t.Fatalf("code-loss delta: tree shared %v, %d dead groups, want shared and 1",
			&smaller.values.bk[0] == &bigger.values.bk[0], smaller.values.dead)
	}
	requireSetInvariants(t, &smaller.values)
	sameRankings(t, &smaller.values,
		&NewCatalog(nil, nil, []string{"John", "Jon", "Salary", "Title", "Gender", "Phoenix"}).values, rng)

	// Smyth brings Smith's code back: the tombstone revives in place.
	revived, st := smaller.ApplyDelta(CatalogDelta{AddValues: []string{"Smyth"}})
	if st.BKReused != 1 || st.BKInserted != 0 || st.BKRebuilt != 0 ||
		&revived.values.bk[0] != &bigger.values.bk[0] || revived.values.dead != 0 {
		t.Fatalf("revival delta: stats %+v, %d dead groups, want bk_reused=1 and none dead", st, revived.values.dead)
	}
	requireSetInvariants(t, &revived.values)
	sameRankings(t, &revived.values,
		&NewCatalog(nil, nil, []string{"John", "Jon", "Salary", "Title", "Gender", "Phoenix", "Smyth"}).values, rng)

	// A second lost code leaves 2 dead groups beside 4 live ones, past one
	// in compactShare: the set is rebuilt from its live entries, exactly as
	// a fresh build of them.
	compacted, st := smaller.ApplyDelta(CatalogDelta{RemoveValues: []string{"Title"}})
	if st.BKRebuilt != 1 || st.BKReused != 0 || st.BKInserted != 0 || st.Removed != 1 {
		t.Fatalf("compacting delta: stats %+v, want bk_rebuilt=1", st)
	}
	fresh := NewCatalog(nil, nil, []string{"John", "Jon", "Salary", "Gender", "Phoenix"})
	if !reflect.DeepEqual(compacted.values, fresh.values) {
		t.Fatalf("compacted set differs from a fresh build\n got: %+v\nwant: %+v", compacted.values, fresh.values)
	}
	requireSetInvariants(t, &smaller.values) // the receiver is untouched
}

// TestApplyDeltaColumns covers the per-column domains: touched columns are
// rebuilt, untouched ones shared, emptied ones dropped.
func TestApplyDeltaColumns(t *testing.T) {
	cat := NewCatalog(nil, []string{"City", "Gender"}, []string{"Phoenix", "M"}).
		WithColumnValues(map[string][]string{
			"City":   {"Phoenix", "Tempe"},
			"Gender": {"M", "F"},
		})
	up, _ := cat.ApplyDelta(CatalogDelta{
		AddColumnValues:    map[string][]string{"city": {"Mesa"}},
		RemoveColumnValues: map[string][]string{"Gender": {"M", "F"}},
	})
	city, ok := up.columnValues("CITY")
	if !ok {
		t.Fatalf("city column lost")
	}
	if got := names(city.entries); !reflect.DeepEqual(got, []string{"Mesa", "Phoenix", "Tempe"}) {
		t.Fatalf("city domain %v", got)
	}
	requireSetInvariants(t, city)
	if _, ok := up.columnValues("gender"); ok {
		t.Fatalf("emptied gender column should be dropped")
	}
	if got, _ := cat.columnValues("gender"); got == nil {
		t.Fatalf("receiver's gender column mutated")
	}
	// A delta for a column the catalog never had creates it.
	fresh, _ := up.ApplyDelta(CatalogDelta{AddColumnValues: map[string][]string{"Stars": {"4", "5"}}})
	if _, ok := fresh.columnValues("stars"); !ok {
		t.Fatalf("new column not created")
	}
}

// rebuildFromNames rebuilds c from the name lists it reports, the way the
// tenant registry reloads a tenant from its file.
func rebuildFromNames(c *Catalog) *Catalog {
	return NewCatalog(c.Tables(), c.Attributes(), c.Values()).WithColumnValues(c.ColumnValues())
}

// requireSameVotes asserts got holds want's name lists and column domains
// and votes bit-identically to it on every set.
func requireSameVotes(t *testing.T, got, want *Catalog, rng *rand.Rand) {
	t.Helper()
	if !reflect.DeepEqual(got.ColumnValues(), want.ColumnValues()) {
		t.Fatalf("column domains %v, want %v", got.ColumnValues(), want.ColumnValues())
	}
	sets := map[string][2]*catSet{
		"tables": {&got.tables, &want.tables},
		"attrs":  {&got.attrs, &want.attrs},
		"values": {&got.values, &want.values},
	}
	for attr, set := range want.byAttr {
		sets["column "+attr] = [2]*catSet{got.byAttr[attr], set}
	}
	for name, pair := range sets {
		if !reflect.DeepEqual(names(pair[0].entries), names(pair[1].entries)) {
			t.Fatalf("%s: names %v, want %v", name, names(pair[0].entries), names(pair[1].entries))
		}
		requireSetInvariants(t, pair[0])
		sameRankings(t, pair[0], pair[1], rng)
	}
}

// TestCatalogRoundTrip pins that a catalog rebuilt from its own name lists
// (Tables, Attributes, Values and ColumnValues: what a tenant file holds)
// is observably identical to the original, column domains included.
func TestCatalogRoundTrip(t *testing.T) {
	cat := NewCatalog(
		[]string{"Employees", "Departments", "Salaries"},
		[]string{"FirstName", "LastName", "Salary", "City"},
		[]string{"John", "Jon", "Smith", "Phoenix", "d001", "d002"},
	).WithColumnValues(map[string][]string{
		"City":      {"Phoenix", "Tempe", "Mesa"},
		"FirstName": {"John", "Jon", "Joan"},
	})
	if got := cat.ColumnValues()["city"]; !reflect.DeepEqual(got, []string{"Mesa", "Phoenix", "Tempe"}) {
		t.Fatalf("ColumnValues()[city] = %v", got)
	}
	requireSameVotes(t, rebuildFromNames(cat), cat, rand.New(rand.NewSource(11)))
	if got := NewCatalog(nil, nil, nil).ColumnValues(); len(got) != 0 {
		t.Fatalf("catalog without domains reports %v", got)
	}
}

// TestCatalogRoundTripAfterDelta pins the same for catalogs ApplyDelta
// produced, whose group order and BK-tree shape differ from a rebuild's:
// only the names carry over, and the votes still match.
func TestCatalogRoundTripAfterDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 20; round++ {
		cat := NewCatalog(randomNames(rng, 4), randomNames(rng, 4), randomNames(rng, rng.Intn(12))).
			WithColumnValues(map[string][]string{"City": randomNames(rng, 5), "Title": randomNames(rng, 3)})
		updated, _ := cat.ApplyDelta(CatalogDelta{
			AddValues:          randomNames(rng, rng.Intn(6)),
			RemoveValues:       randomNames(rng, rng.Intn(6)),
			AddColumnValues:    map[string][]string{"city": randomNames(rng, 3), "Stars": randomNames(rng, 2)},
			RemoveColumnValues: map[string][]string{"Title": randomNames(rng, 4)},
		})
		requireSameVotes(t, rebuildFromNames(updated), updated, rng)
	}
}

// TestApplyDeltaEmpty pins the no-op path.
func TestApplyDeltaEmpty(t *testing.T) {
	cat := NewCatalog([]string{"T"}, nil, nil)
	var d CatalogDelta
	if !d.Empty() {
		t.Fatalf("zero delta not Empty")
	}
	up, st := cat.ApplyDelta(d)
	if st != (UpdateStats{}) {
		t.Fatalf("no-op delta did work: %+v", st)
	}
	if !reflect.DeepEqual(up.Tables(), cat.Tables()) {
		t.Fatalf("no-op delta changed tables")
	}
}

// yelpTenant builds the Yelp tenant the popular workload serves: 3,074
// values, the catalog its PATCHes update.
func yelpTenant() *sqlengine.Database {
	return dataset.NewYelpDB(dataset.YelpConfig{Businesses: 12000, Users: 400, Reviews: 1500, Seed: 2})
}

// TestBuildSetMatchesReference pins the one builder to the fresh-set
// builder it replaced: entries, maps, groups, members and BK-tree must be
// deeply equal, so the vote hot path sees the same structures.
func TestBuildSetMatchesReference(t *testing.T) {
	check := func(label string, names []string) {
		t.Helper()
		if got, want := buildSet(names), referenceBuildSet(names); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: buildSet(%q) differs from the reference builder\n got: %+v\nwant: %+v",
				label, names, got, want)
		}
	}
	rng := rand.New(rand.NewSource(17))
	check("empty", nil)
	check("blank", []string{"", ""})
	for i := 0; i < 400; i++ {
		names := append(randWords(rng, 0, 60), randomNames(rng, rng.Intn(20))...)
		for n := rng.Intn(4); n > 0; n-- {
			// Long names give codes past the distance kernel's one-word
			// limit; blanks and repeats must be dropped.
			names = append(names, strings.Repeat(wordPool[rng.Intn(len(wordPool))], 1+rng.Intn(12)), "")
		}
		rng.Shuffle(len(names), func(a, b int) { names[a], names[b] = names[b], names[a] })
		check(fmt.Sprintf("list %d", i), names)
	}
	yelp := yelpTenant()
	check("yelp tables", yelp.TableNames())
	check("yelp attributes", yelp.AttributeNames())
	check("yelp values", yelp.StringValues(0))
}

// TestBKInsertZeroAllocs pins the BK build's distance to the bounded
// kernel: growing a tree over codes of at most 64 bytes into an arena with
// room for every node allocates nothing.
func TestBKInsertZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seen := map[string]bool{}
	var groups []phoneGroup
	for len(groups) < 200 {
		b := make([]byte, 1+rng.Intn(64))
		for i := range b {
			b[i] = "0BFHJKLMNPRSTWXY"[rng.Intn(16)]
		}
		if code := string(b); !seen[code] {
			seen[code] = true
			groups = append(groups, phoneGroup{code: code})
		}
	}
	nodes := make([]bkNode, 0, len(groups))
	if n := testing.AllocsPerRun(10, func() {
		nodes = nodes[:0]
		for range groups {
			nodes = bkInsert(nodes, groups)
		}
	}); n != 0 {
		t.Fatalf("growing a %d-node BK-tree allocated %.0f times, want 0", len(groups), n)
	}
}

// FuzzApplyDelta drives ApplyDelta with PATCH-shaped deltas built from
// untrusted input: comma-separated base, added and removed value lists.
// The result must hold exactly the names finalNames predicts, keep the set
// invariants, and vote like NewCatalog over those names.
func FuzzApplyDelta(f *testing.F) {
	f.Add("John,Jon,Smith", "Joan,Phoenix", "Jon")
	f.Add("Smith,Smyth,Schmidt", "", "Smith,Smyth,Schmidt")
	f.Add("", "fenix,Fenix,,fenix", "")
	f.Add("d001,d002,Salary", "Celery,d001", "d002,d009,Salary")
	f.Fuzz(func(t *testing.T, base, add, remove string) {
		if len(base)+len(add)+len(remove) > 4096 {
			t.Skip()
		}
		split := func(s string) []string {
			if s == "" {
				return nil
			}
			return strings.Split(s, ",")
		}
		b, a, r := split(base), split(add), split(remove)
		// The second delta swaps the lists: it puts back what the first
		// removed and removes what it added, reviving its tombstones and
		// leaving new ones, on a set that may already hold some.
		cat := NewCatalog(nil, nil, b)
		names := b
		for _, d := range []CatalogDelta{{AddValues: a, RemoveValues: r}, {AddValues: r, RemoveValues: a}} {
			updated, st := cat.ApplyDelta(d)
			final := finalNames(names, d.AddValues, d.RemoveValues)
			if got := len(cat.Values()) - st.Removed + st.Added; got != len(final) {
				t.Fatalf("stats %+v take %d values to %d, want %d", st, len(cat.Values()), got, len(final))
			}
			rebuilt := NewCatalog(nil, nil, final)
			slices.Sort(final)
			if got := updated.Values(); !slices.Equal(got, final) {
				t.Fatalf("values %q, want %q", got, final)
			}
			requireSetInvariants(t, &updated.values)
			sameRankings(t, &updated.values, &rebuilt.values, rand.New(rand.NewSource(1)))
			if window := strings.Fields(strings.Join(append(a, r...), " ")); len(window) > 0 {
				checkIndexMatchesNaive(t, &updated.values, window[:min(len(window), 8)], 0, 3)
			}
			cat, names = updated, final
		}
	})
}

// BenchmarkApplyDeltaIncremental vs BenchmarkRebuildFull documents the
// point of the incremental path at a realistic catalog size.
func BenchmarkApplyDeltaIncremental(b *testing.B) {
	base := make([]string, 0, 5000)
	for i := 0; i < 5000; i++ {
		base = append(base, fmt.Sprintf("value%04d", i))
	}
	cat := NewCatalog(nil, nil, base)
	delta := CatalogDelta{AddValues: []string{"Phoenix", "Tempe", "Mesa"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat.ApplyDelta(delta)
	}
}

func BenchmarkRebuildFull(b *testing.B) {
	base := make([]string, 0, 5003)
	for i := 0; i < 5000; i++ {
		base = append(base, fmt.Sprintf("value%04d", i))
	}
	base = append(base, "Phoenix", "Tempe", "Mesa")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCatalog(nil, nil, base)
	}
}

// BenchmarkApplyDeltaRetire times the PATCH the popular workload sends: on
// the Yelp tenant, add a value whose code no live catalog value has and
// retire the value the previous PATCH added. The retired code tombstones
// its node and the added one revives the tombstone the PATCH before left,
// so the values set's BK-tree is shared (BenchmarkApplyDeltaIncremental
// times the grow branch).
func BenchmarkApplyDeltaRetire(b *testing.B) {
	yelp := yelpTenant()
	cat := NewCatalog(yelp.TableNames(), yelp.AttributeNames(), yelp.StringValues(0))
	codes := map[string]bool{}
	for _, v := range cat.Values() {
		codes[phonetic.Encode(v)] = true
	}
	var fresh []string // two names with distinct codes new to the catalog
	for _, v := range []string{"Karsten", "Tomokazu", "Shimshon", "Narain", "Perla", "Zhivago", "Quixote"} {
		if c := phonetic.Encode(v); !codes[c] {
			codes[c] = true
			fresh = append(fresh, v)
		}
	}
	if len(fresh) < 2 {
		b.Fatalf("only %d candidate names have codes new to the catalog", len(fresh))
	}
	cat, _ = cat.ApplyDelta(CatalogDelta{AddValues: fresh[:2]})
	cat, _ = cat.ApplyDelta(CatalogDelta{RemoveValues: fresh[1:2]})
	if next, st := cat.ApplyDelta(CatalogDelta{AddValues: fresh[1:2], RemoveValues: fresh[:1]}); st.BKReused != 1 ||
		st.BKInserted != 0 || st.BKRebuilt != 0 || next.values.dead != 1 || &next.values.bk[0] != &cat.values.bk[0] {
		b.Fatalf("retire delta took stats %+v and left %d dead groups, want a tombstone in a shared tree",
			st, next.values.dead)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat, _ = cat.ApplyDelta(CatalogDelta{AddValues: fresh[(i+1)%2 : (i+1)%2+1], RemoveValues: fresh[i%2 : i%2+1]})
	}
}
