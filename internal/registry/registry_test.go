package registry

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"speakql/internal/core"
	"speakql/internal/faultinject"
	"speakql/internal/grammar"
	"speakql/internal/literal"
	"speakql/internal/obs"
	"speakql/internal/structure"
)

// sharedComponent is built once per test process: the whole point of the
// shared half is that tenants reuse one frozen trie arena.
var (
	sharedOnce sync.Once
	sharedComp *structure.Component
)

func testComponent(t testing.TB) *structure.Component {
	t.Helper()
	sharedOnce.Do(func() {
		c, err := structure.New(structure.Config{Grammar: grammar.TestScale()})
		if err != nil {
			t.Fatalf("build shared component: %v", err)
		}
		sharedComp = c
	})
	return sharedComp
}

// testCat builds a small distinct catalog per index so tests can tell
// tenants apart by their schemas.
func testCat(i int) *literal.Catalog {
	return literal.NewCatalog(
		[]string{fmt.Sprintf("Table%d", i), "Employees"},
		[]string{"FirstName", fmt.Sprintf("Attr%d", i)},
		[]string{"John", "Jon", fmt.Sprintf("Val%d", i)},
	)
}

func newTestRegistry(t testing.TB, maxLive int) *Registry {
	t.Helper()
	reg, err := New(Config{
		Shared:  Shared{Structure: testComponent(t), TopKLiterals: 5},
		MaxLive: maxLive,
		Dir:     t.TempDir(),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return reg
}

func counters() map[string]int64 {
	return obs.Default().Snapshot().CountersWithPrefix("registry.")
}

func counterDelta(before, after map[string]int64, name string) int64 {
	return after[name] - before[name]
}

func TestRegistryPutAcquireEvict(t *testing.T) {
	reg := newTestRegistry(t, 2)
	var mu sync.Mutex
	var evicted []string
	reg.SetEvictHook(func(id string) {
		mu.Lock()
		evicted = append(evicted, id)
		mu.Unlock()
	})

	before := counters()
	for i := 0; i < 3; i++ {
		if _, err := reg.Put(fmt.Sprintf("t%d", i), testCat(i)); err != nil {
			t.Fatalf("Put t%d: %v", i, err)
		}
	}
	st := reg.Stats()
	if st.Resident != 2 || st.Known != 3 || st.Capacity != 2 {
		t.Fatalf("stats after overflow = %+v", st)
	}
	mu.Lock()
	if !reflect.DeepEqual(evicted, []string{"t0"}) {
		t.Fatalf("evicted = %v, want [t0]", evicted)
	}
	mu.Unlock()

	// Evicted tenant lazily reloads from disk.
	got, err := reg.Acquire("t0")
	if err != nil {
		t.Fatalf("Acquire evicted tenant: %v", err)
	}
	if !reflect.DeepEqual(got.Catalog.Tables(), testCat(0).Tables()) {
		t.Fatalf("reloaded catalog tables = %v", got.Catalog.Tables())
	}
	if st := reg.Stats(); st.Resident != 2 {
		t.Fatalf("resident after reload = %d, want 2 (LRU bound)", st.Resident)
	}

	// Warm hit keeps it resident and does not touch disk.
	if _, err := reg.Acquire("t0"); err != nil {
		t.Fatalf("warm Acquire: %v", err)
	}
	after := counters()
	if d := counterDelta(before, after, "registry.cold_loads"); d != 1 {
		t.Errorf("cold_loads delta = %d, want 1", d)
	}
	if d := counterDelta(before, after, "registry.warm_hits"); d < 1 {
		t.Errorf("warm_hits delta = %d, want >= 1", d)
	}
	if d := counterDelta(before, after, "registry.evictions"); d != 2 {
		t.Errorf("evictions delta = %d, want 2 (t0 at put, then LRU tail at reload)", d)
	}

	if _, err := reg.Acquire("nope"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Acquire unknown = %v, want ErrUnknownTenant", err)
	}
}

// TestWarmAcquireZeroAllocs pins a warm Acquire, which every tenant-scoped
// request pays, at zero allocations: the LRU touch moves the entry to the
// front in place. The order it leaves still decides which tenant goes next.
func TestWarmAcquireZeroAllocs(t *testing.T) {
	reg := newTestRegistry(t, 4)
	ids := []string{"w0", "w1", "w2", "w3"}
	for i, id := range ids {
		if _, err := reg.Put(id, testCat(i)); err != nil {
			t.Fatalf("Put %s: %v", id, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			if _, err := reg.Acquire(id); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("four warm Acquires allocated %.0f times, want 0", n)
	}
	// Most recent first: w0 (touched last) w3 w2 w1, so w1 goes next.
	if _, err := reg.Acquire("w0"); err != nil {
		t.Fatal(err)
	}
	var evicted []string
	reg.SetEvictHook(func(id string) { evicted = append(evicted, id) })
	if _, err := reg.Put("w4", testCat(4)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evicted, []string{"w1"}) {
		t.Fatalf("evicted %v, want [w1]", evicted)
	}
	// The order is rotated in place, so its backing array outlives entries:
	// an evicted or deleted tenant's slot must be cleared, not left to pin
	// its catalog.
	if err := reg.Delete("w2"); err != nil {
		t.Fatal(err)
	}
	for _, le := range reg.order[:cap(reg.order)] {
		if le != nil && (le.id == "w1" || le.id == "w2") {
			t.Fatalf("LRU order's backing array still holds %s", le.id)
		}
	}
}

func TestRegistryNoEvictionWithoutDir(t *testing.T) {
	reg, err := New(Config{
		Shared:  Shared{Structure: testComponent(t), TopKLiterals: 5},
		MaxLive: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := reg.Put(fmt.Sprintf("m%d", i), testCat(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Without a persist dir eviction would destroy tenants, so residency is
	// allowed to exceed MaxLive.
	if st := reg.Stats(); st.Resident != 3 || st.Persistent {
		t.Fatalf("stats = %+v, want 3 resident, not persistent", st)
	}
}

func TestRegistrySeedPinned(t *testing.T) {
	reg := newTestRegistry(t, 1)
	cat := testCat(99)
	eng := core.NewEngineWithComponent(testComponent(t), cat, 5)
	reg.SetSeed("default", eng, cat)

	if _, err := reg.Put("default", testCat(0)); !errors.Is(err, ErrSeedImmutable) {
		t.Fatalf("Put seed = %v, want ErrSeedImmutable", err)
	}
	if err := reg.Delete("default"); !errors.Is(err, ErrSeedImmutable) {
		t.Fatalf("Delete seed = %v, want ErrSeedImmutable", err)
	}
	if _, _, err := reg.Update("default", literal.CatalogDelta{AddValues: []string{"x"}}); !errors.Is(err, ErrSeedImmutable) {
		t.Fatalf("Update seed = %v, want ErrSeedImmutable", err)
	}

	// Churn past capacity: the seed must stay resident throughout.
	for i := 0; i < 4; i++ {
		if _, err := reg.Put(fmt.Sprintf("s%d", i), testCat(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := reg.Acquire("default")
	if err != nil || got.Engine != eng {
		t.Fatalf("seed Acquire = (%v, %v), want pinned engine", got, err)
	}
	if st := reg.Stats(); st.Resident != 1 {
		t.Fatalf("resident = %d, want 1 (seed not counted)", st.Resident)
	}
	list := reg.List()
	if len(list) != 5 || !list[0].Seed || list[0].ID != "default" || !list[0].Resident {
		t.Fatalf("List = %+v", list)
	}
}

func TestRegistryDelete(t *testing.T) {
	reg := newTestRegistry(t, 4)
	if _, err := reg.Put("gone", testCat(1)); err != nil {
		t.Fatal(err)
	}
	path := reg.path("gone")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("tenant file missing after Put: %v", err)
	}
	if err := reg.Delete("gone"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("tenant file survives delete: %v", err)
	}
	if _, err := reg.Acquire("gone"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Acquire deleted = %v", err)
	}
	if err := reg.Delete("gone"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("second Delete = %v", err)
	}
}

func TestRegistryReloadAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	reg1, err := New(Config{Shared: Shared{Structure: testComponent(t), TopKLiterals: 5}, MaxLive: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := testCat(7).WithColumnValues(map[string][]string{"FirstName": {"John", "Joan"}})
	if _, err := reg1.Put("persisted", want); err != nil {
		t.Fatal(err)
	}

	// A fresh registry on the same dir knows the tenant and lazy-loads it.
	reg2, err := New(Config{Shared: Shared{Structure: testComponent(t), TopKLiterals: 5}, MaxLive: 4, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := reg2.Stats(); st.Known != 1 || st.Resident != 0 {
		t.Fatalf("restart stats = %+v", st)
	}
	got, err := reg2.Acquire("persisted")
	if err != nil {
		t.Fatalf("Acquire after restart: %v", err)
	}
	if !reflect.DeepEqual(got.Catalog.Values(), want.Values()) {
		t.Fatalf("values after restart = %v", got.Catalog.Values())
	}
}

// Two registries sharing one dir model replicas behind the router: a tenant
// registered on one replica after the other started must still be
// acquirable there — Put persists before visibility, and Acquire checks the
// shared dir before rejecting an unknown id.
func TestRegistrySharedDirDiscovery(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Registry {
		reg, err := New(Config{Shared: Shared{Structure: testComponent(t), TopKLiterals: 5}, MaxLive: 4, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return reg
	}
	a, b := mk(), mk() // both scanned an empty dir
	want := testCat(9)
	if _, err := a.Put("late", want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Acquire("late")
	if err != nil {
		t.Fatalf("Acquire of a tenant registered on the other replica: %v", err)
	}
	if !reflect.DeepEqual(got.Catalog.Values(), want.Values()) {
		t.Fatalf("discovered catalog values = %v", got.Catalog.Values())
	}
	// Ids that exist nowhere still miss, and invalid ids never hit the disk.
	if _, err := b.Acquire("never-registered"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown id = %v", err)
	}
	if _, err := b.Acquire("../escape"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("invalid id = %v", err)
	}
}

func TestRegistrySingleflight(t *testing.T) {
	reg := newTestRegistry(t, 4)
	if _, err := reg.Put("hot", testCat(3)); err != nil {
		t.Fatal(err)
	}
	// Force it cold by building a fresh registry over the same dir.
	reg2, err := New(Config{Shared: reg.shared, MaxLive: 4, Dir: reg.dir})
	if err != nil {
		t.Fatal(err)
	}

	// Slow the load path down so the herd really overlaps.
	inj, err := faultinject.Parse("registry:latency=30ms;seed=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)
	defer faultinject.Set(nil)

	before := counters()
	const herd = 8
	got := make([]*Tenant, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn, err := reg2.Acquire("hot")
			if err != nil {
				t.Errorf("herd Acquire: %v", err)
				return
			}
			got[i] = tn
		}(i)
	}
	wg.Wait()
	for i := 1; i < herd; i++ {
		if got[i] != got[0] {
			t.Fatalf("herd member %d got a different tenant build", i)
		}
	}
	after := counters()
	if d := counterDelta(before, after, "registry.cold_loads"); d != 1 {
		t.Errorf("cold_loads delta = %d, want exactly 1 (singleflight)", d)
	}
	if d := counterDelta(before, after, "registry.load_dedup"); d < 1 {
		t.Errorf("load_dedup delta = %d, want >= 1", d)
	}
}

func TestRegistryDeleteDuringLoad(t *testing.T) {
	reg := newTestRegistry(t, 4)
	if _, err := reg.Put("victim", testCat(5)); err != nil {
		t.Fatal(err)
	}
	reg2, err := New(Config{Shared: reg.shared, MaxLive: 4, Dir: reg.dir})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.Parse("registry:latency=60ms;seed=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)
	defer faultinject.Set(nil)

	errc := make(chan error, 1)
	go func() {
		_, err := reg2.Acquire("victim")
		errc <- err
	}()
	time.Sleep(15 * time.Millisecond) // let the load enter its injected latency
	if err := reg2.Delete("victim"); err != nil {
		t.Fatalf("Delete during load: %v", err)
	}
	select {
	case err := <-errc:
		// A delete racing the load must not resurrect the tenant: the load
		// either lost (unknown) or won just before the delete; in both cases
		// the tenant must not be resident afterwards.
		if err != nil && !errors.Is(err, ErrUnknownTenant) {
			t.Fatalf("Acquire during delete = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("load never completed")
	}
	if st := reg2.Stats(); st.Known != 0 {
		t.Fatalf("tenant still known after delete: %+v", st)
	}
	if _, err := reg2.Acquire("victim"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("Acquire after delete = %v", err)
	}
}

// TestRegistryLifecycleRace hammers one tenant with concurrent Put, Delete
// and cold Acquire through a capacity-1 LRU, so most Acquires of it load
// from disk. A load may fail only as an unknown tenant — never on a file a
// racing Delete removed while the tenant was still registered — and once
// the writers stop, the tenant is known exactly when its file exists.
func TestRegistryLifecycleRace(t *testing.T) {
	reg := newTestRegistry(t, 1)
	const rounds = 300
	var wg sync.WaitGroup
	errc := make(chan error, 4*rounds)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := reg.Put("a", testCat(1)); err != nil {
				errc <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := reg.Delete("a"); err != nil && !errors.Is(err, ErrUnknownTenant) {
				errc <- err
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := reg.Put("b", testCat(2)); err != nil { // evicts "a"
				errc <- err
			}
			if _, err := reg.Acquire("a"); err != nil && !errors.Is(err, ErrUnknownTenant) {
				errc <- err
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("lifecycle race: %v", err)
	}
	known := false
	for _, info := range reg.List() {
		known = known || info.ID == "a"
	}
	if _, err := os.Stat(reg.path("a")); known != (err == nil) {
		t.Fatalf("tenant known=%v, but file present=%v", known, err == nil)
	}
}

func TestRegistryLoadFaultInjection(t *testing.T) {
	reg := newTestRegistry(t, 4)
	if _, err := reg.Put("flaky", testCat(2)); err != nil {
		t.Fatal(err)
	}
	reg2, err := New(Config{Shared: reg.shared, MaxLive: 4, Dir: reg.dir})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.Parse("registry:error@1;seed=3")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)
	if _, err := reg2.Acquire("flaky"); err == nil {
		t.Fatal("injected load error not surfaced")
	}
	faultinject.Set(nil)
	// The failure is transient: the next acquire retries and succeeds.
	if _, err := reg2.Acquire("flaky"); err != nil {
		t.Fatalf("Acquire after fault cleared: %v", err)
	}
}

func TestRegistryUpdateIsIncrementalAndCopyOnWrite(t *testing.T) {
	reg := newTestRegistry(t, 4)
	old, err := reg.Put("inc", testCat(0))
	if err != nil {
		t.Fatal(err)
	}
	updated, stats, err := reg.Update("inc", literal.CatalogDelta{AddValues: []string{"Phoenix"}})
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if stats.Added != 1 || stats.BKInserted != 1 {
		t.Fatalf("stats = %+v, want 1 added, 1 BK code inserted (incremental)", stats)
	}
	if got := updated.Catalog.Values(); len(got) != len(old.Catalog.Values())+1 {
		t.Fatalf("values after update = %v", got)
	}
	// Requests holding the pre-update tenant keep their frozen catalog.
	for _, v := range old.Catalog.Values() {
		if v == "Phoenix" {
			t.Fatal("update mutated the old tenant's catalog")
		}
	}
	// The update persisted: a cold reload sees the new value.
	reg2, err := New(Config{Shared: reg.shared, MaxLive: 4, Dir: reg.dir})
	if err != nil {
		t.Fatal(err)
	}
	got, err := reg2.Acquire("inc")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Catalog.Values(), updated.Catalog.Values()) {
		t.Fatalf("reloaded values = %v, want %v", got.Catalog.Values(), updated.Catalog.Values())
	}
}

func TestValidateID(t *testing.T) {
	for _, ok := range []string{"a", "tenant-1", "A_Z-09", "x"} {
		if err := ValidateID(ok); err != nil {
			t.Errorf("ValidateID(%q) = %v", ok, err)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "a/b", "..", "a.tenant", "white space", string(long), "Ünicode"} {
		if err := ValidateID(bad); err == nil {
			t.Errorf("ValidateID(%q) accepted", bad)
		}
	}
}

// TestTenantFileHostileInput feeds the load path damaged and foreign tenant
// files: each must fail with an error naming the file, never panic and
// never make the tenant resident.
func TestTenantFileHostileInput(t *testing.T) {
	src := newTestRegistry(t, 4)
	if _, err := src.Put("good", testCat(1).WithColumnValues(map[string][]string{"FirstName": {"John"}})); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(src.path("good"))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy.tenant"))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"unknown field": []byte(`{"version":3,"id":"good","tables":["T"],"rows":[]}`),
		"wrong version": []byte(`{"version":2,"id":"good","tables":["T"]}`),
		"no version":    []byte(`{"id":"good","tables":["T"]}`),
		"bad id":        []byte(`{"version":3,"id":"../good","tables":["T"]}`),
		"mismatched id": []byte(`{"version":3,"id":"other","tables":["T"]}`),
		"null":          []byte(`null`),
		"wrong type":    []byte(`{"version":3,"id":"good","tables":"T"}`),
		// A tenant file from before the name-list format: a binary image of
		// the phonetic index, written by the previous build.
		"binary index image": legacy,
	}
	for i := 1; i < len(valid); i += 9 {
		cases[fmt.Sprintf("truncated@%d", i)] = valid[:i]
	}
	reg := newTestRegistry(t, 4)
	path := reg.path("good")
	for name, data := range cases {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := reg.Acquire("good")
		if err == nil {
			t.Errorf("%s: hostile tenant file accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name %s", name, err, path)
		}
	}
	if st := reg.Stats(); st.Resident != 0 {
		t.Fatalf("a rejected file made the tenant resident: %+v", st)
	}
	if err := os.WriteFile(path, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Acquire("good"); err != nil {
		t.Fatalf("valid file after the hostile ones: %v", err)
	}
}

func TestRegistryLoadRejectsMismatchedID(t *testing.T) {
	reg := newTestRegistry(t, 4)
	if _, err := reg.Put("alpha", testCat(1)); err != nil {
		t.Fatal(err)
	}
	// Simulate an operator copying alpha's file over beta's name.
	data, err := os.ReadFile(reg.path("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(reg.dir, "beta"+tenantExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg2, err := New(Config{Shared: reg.shared, MaxLive: 4, Dir: reg.dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.Acquire("beta"); err == nil {
		t.Fatal("mis-named tenant file served another tenant's schema")
	}
}

// TestSingleTenantDifferential is the acceptance gate for the refactor: a
// tenant served through the registry (shared component + per-tenant
// catalog, including a full evict/reload cycle through the persist file)
// must produce corrections bit-identical to the pre-refactor monolithic
// engine — same candidates, same rankings, same degradation ladder.
func TestSingleTenantDifferential(t *testing.T) {
	mkCat := func() *literal.Catalog {
		return literal.NewCatalog(
			[]string{"Employees", "Salaries", "Titles", "DepartmentEmployee"},
			[]string{"FirstName", "LastName", "Salary", "Gender", "HireDate",
				"FromDate", "ToDate", "Title", "EmployeeNumber", "DepartmentNumber"},
			[]string{"John", "Jon", "Karsten", "Engineer", "M", "F", "d002"},
		).WithColumnValues(map[string][]string{
			"FirstName": {"John", "Jon", "Karsten"},
			"Gender":    {"M", "F"},
		})
	}
	// The pre-refactor shape: one engine owning everything.
	mono, err := core.NewEngine(core.Config{Grammar: grammar.TestScale(), Catalog: mkCat(), TopKLiterals: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The refactored shape: shared component + registry tenant.
	reg := newTestRegistry(t, 1)
	tenant, err := reg.Put("diff", mkCat())
	if err != nil {
		t.Fatal(err)
	}

	transcripts := []string{
		"select sales from employers wear name equals Jon",
		"select salary from employees",
		"select first name from employees where gender equals M",
		"select title from titles where first name equals Karsten",
		"select star from employees",
		"show me the salaries table",
		"",
		"blah blah blah",
		"select gender from employees where department number equals d002",
		"select hire date from employees where last name equals john",
	}
	compare := func(t *testing.T, label string, eng *core.Engine) {
		t.Helper()
		for _, tr := range transcripts {
			want := mono.CorrectTopK(tr, 3)
			got := eng.CorrectTopK(tr, 3)
			if want.Degradation != got.Degradation {
				t.Fatalf("%s: %q degradation %q != %q", label, tr, got.Degradation, want.Degradation)
			}
			if len(want.Candidates) != len(got.Candidates) {
				t.Fatalf("%s: %q candidate count %d != %d", label, tr, len(got.Candidates), len(want.Candidates))
			}
			for i := range want.Candidates {
				w, g := want.Candidates[i], got.Candidates[i]
				if w.SQL != g.SQL || !reflect.DeepEqual(w.Tokens, g.Tokens) ||
					!reflect.DeepEqual(w.Structure, g.Structure) ||
					w.StructureDistance != g.StructureDistance {
					t.Fatalf("%s: %q candidate %d diverged:\n  mono: %q %v\n  reg:  %q %v",
						label, tr, i, w.SQL, w.Structure, g.SQL, g.Structure)
				}
			}
		}
		// The degradation ladder must agree too: a pre-expired deadline sheds
		// identically on both shapes.
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		want := mono.CorrectContext(ctx, transcripts[0])
		got := eng.CorrectContext(ctx, transcripts[0])
		if want.Degradation != got.Degradation || len(got.Candidates) != len(want.Candidates) {
			t.Fatalf("%s: expired-deadline ladder diverged: %q/%d vs %q/%d",
				label, got.Degradation, len(got.Candidates), want.Degradation, len(want.Candidates))
		}
	}
	compare(t, "fresh", tenant.Engine)

	// Round-trip the tenant through eviction: put another tenant into the
	// size-1 LRU, then reload "diff" from its persist file.
	if _, err := reg.Put("other", testCat(1)); err != nil {
		t.Fatal(err)
	}
	reloaded, err := reg.Acquire("diff")
	if err != nil {
		t.Fatal(err)
	}
	if reloaded == tenant {
		t.Fatal("expected a reload, got the original resident tenant")
	}
	compare(t, "reloaded", reloaded.Engine)
}

// sameCorrections asserts two engines give identical top-k corrections —
// candidates, bindings with their votes, and ladder level — for every
// transcript.
func sameCorrections(t *testing.T, label string, want, got *core.Engine, transcripts []string, k int) {
	t.Helper()
	for _, tr := range transcripts {
		w, g := want.CorrectTopK(tr, k), got.CorrectTopK(tr, k)
		if w.Degradation != g.Degradation || !reflect.DeepEqual(w.Candidates, g.Candidates) {
			t.Fatalf("%s: %q diverged:\n  want %s %+v\n  got  %s %+v",
				label, tr, w.Degradation, w.Candidates, g.Degradation, g.Candidates)
		}
	}
}

// TestTenantReloadRebuildsFromNames pins the tenant file's contract: a
// tenant that was Put with column domains, then updated incrementally,
// evicted and reloaded, corrects exactly like the resident tenant before
// eviction and like an engine built by NewCatalog over its final names.
func TestTenantReloadRebuildsFromNames(t *testing.T) {
	reg := newTestRegistry(t, 1)
	cat := literal.NewCatalog(
		[]string{"Employees", "Salaries", "Titles"},
		[]string{"FirstName", "LastName", "Salary", "Gender", "Title"},
		[]string{"John", "Jon", "Smith", "Engineer", "M", "F"},
	).WithColumnValues(map[string][]string{
		"FirstName": {"John", "Jon"},
		"Gender":    {"M", "F"},
	})
	if _, err := reg.Put("names", cat); err != nil {
		t.Fatal(err)
	}
	updated, _, err := reg.Update("names", literal.CatalogDelta{
		AddValues:          []string{"Karsten", "Senior Engineer"},
		RemoveValues:       []string{"Jon", "Smith"},
		AddColumnValues:    map[string][]string{"FirstName": {"Karsten"}, "Title": {"Engineer", "Senior Engineer"}},
		RemoveColumnValues: map[string][]string{"firstname": {"Jon"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Put("other", testCat(1)); err != nil { // evicts "names"
		t.Fatal(err)
	}
	reloaded, err := reg.Acquire("names")
	if err != nil {
		t.Fatal(err)
	}
	if reloaded == updated {
		t.Fatal("expected a reload, got the resident tenant")
	}
	rebuilt := core.NewEngineWithComponent(testComponent(t), literal.NewCatalog(
		[]string{"Employees", "Salaries", "Titles"},
		[]string{"FirstName", "LastName", "Salary", "Gender", "Title"},
		[]string{"John", "Karsten", "Senior Engineer", "Engineer", "M", "F"},
	).WithColumnValues(map[string][]string{
		"FirstName": {"John", "Karsten"},
		"Gender":    {"M", "F"},
		"Title":     {"Engineer", "Senior Engineer"},
	}), 5)
	transcripts := []string{
		"select salary from employees where first name equals karsten",
		"select salary from employees where first name equals jon",
		"select title from titles where title equals senior engineer",
		"select first name from employees where gender equals M",
		"select sales from employers wear last name equals smith",
		"select star from employees",
		"",
	}
	sameCorrections(t, "before eviction", updated.Engine, reloaded.Engine, transcripts, 5)
	sameCorrections(t, "final names", rebuilt, reloaded.Engine, transcripts, 5)
}

// TestTenantFileReencodesNames pins that a tenant file carries names, not
// phonetic codes: a hand-written file holding İsmail and a Kelvin-sign
// Kate (names whose Metaphone codes changed when Encode learned to fold
// their case) corrects exactly like a PUT of the same names.
func TestTenantFileReencodesNames(t *testing.T) {
	const kate = "\u212Aate" // U+212A KELVIN SIGN, not a K
	reg := newTestRegistry(t, 4)
	file := `{"version": 3, "id": "handmade",
		"tables": ["Employees"], "attributes": ["FirstName", "Salary"],
		"values": ["İsmail", "` + kate + `", "Smith"],
		"column_values": {"firstname": ["İsmail", "` + kate + `"]}}`
	if err := os.WriteFile(reg.path("handmade"), []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := reg.Acquire("handmade")
	if err != nil {
		t.Fatal(err)
	}
	put, err := reg.Put("put", literal.NewCatalog(
		[]string{"Employees"}, []string{"FirstName", "Salary"},
		[]string{"İsmail", kate, "Smith"},
	).WithColumnValues(map[string][]string{"FirstName": {"İsmail", kate}}))
	if err != nil {
		t.Fatal(err)
	}
	transcripts := []string{
		"select salary from employees where first name equals ismail",
		"select salary from employees where first name equals kate",
		"select salary from employees where first name equals smith",
	}
	sameCorrections(t, "hand-written file", put.Engine, fromFile.Engine, transcripts, 5)
	for i, want := range []string{"İsmail", kate} {
		if sql := fromFile.Engine.Correct(transcripts[i]).Best().SQL; !strings.Contains(sql, want) {
			t.Errorf("%q corrected to %q, want the literal %q", transcripts[i], sql, want)
		}
	}
}

func TestTenantValidationBindsCatalogSchema(t *testing.T) {
	reg, err := New(Config{
		Shared: Shared{
			Structure:  testComponent(t),
			Validation: core.ValidationConfig{Mode: core.ValidationBind},
		},
		Dir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tenant, err := reg.Put("bindonly", testCat(0))
	if err != nil {
		t.Fatal(err)
	}
	// Non-seed tenants are bare catalogs: their candidates bind against a
	// rowless schema synthesized from the catalog's names.
	if mode := tenant.Engine.ValidationMode(); mode != core.ValidationBind {
		t.Fatalf("tenant validation mode = %q, want bind", mode)
	}
	out := tenant.Engine.CorrectTopK("select first name from employees", 3)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Validation != string(core.ValidationBind) {
		t.Fatalf("Output.Validation = %q, want bind (degradation %q)", out.Validation, out.Degradation)
	}
	for i, c := range out.Candidates {
		if c.Verdict == "" {
			t.Fatalf("candidate %d unverdicted: %+v", i, c)
		}
	}

	// The stage survives the evict/reload round trip.
	if _, err := reg.Put("other", testCat(1)); err != nil {
		t.Fatal(err)
	}
	reloaded, err := reg.Acquire("bindonly")
	if err != nil {
		t.Fatal(err)
	}
	if mode := reloaded.Engine.ValidationMode(); mode != core.ValidationBind {
		t.Fatalf("reloaded tenant validation mode = %q, want bind", mode)
	}
}

func TestTenantValidationOffByDefault(t *testing.T) {
	reg := newTestRegistry(t, 0)
	tenant, err := reg.Put("plain", testCat(0))
	if err != nil {
		t.Fatal(err)
	}
	if mode := tenant.Engine.ValidationMode(); mode != core.ValidationOff {
		t.Fatalf("tenant validation mode = %q, want off", mode)
	}
}
