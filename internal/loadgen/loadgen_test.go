package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/grammar"
	"speakql/internal/httpapi"
	"speakql/internal/literal"
	"speakql/internal/registry"
)

// TestPlanDeterminism pins the harness's reproducibility claim: the same
// (seed, mix, size) always generates the same op sequence — same checksum —
// and a different seed diverges.
func TestPlanDeterminism(t *testing.T) {
	a, err := NewPlan(42, nil, 2000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(42, nil, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum() != b.Checksum() {
		t.Fatalf("same seed, different checksums: %s vs %s", a.Checksum(), b.Checksum())
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a.Ops[i], b.Ops[i])
		}
	}
	c, err := NewPlan(43, nil, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum() == c.Checksum() {
		t.Fatal("different seeds produced identical plans")
	}

	// The realized class mix tracks the configured weights (±50% slack —
	// this is a smoke check on the lottery, not a statistics test).
	counts := a.ClassCounts()
	mix := DefaultMix()
	total := 0
	for _, w := range mix {
		total += w
	}
	for cl, w := range mix {
		want := float64(len(a.Ops)) * float64(w) / float64(total)
		got := float64(counts[cl])
		if got < want/2 || got > want*2 {
			t.Errorf("class %s: %v ops, expected about %v", cl, got, want)
		}
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("correct=3, stream=1")
	if err != nil {
		t.Fatal(err)
	}
	if m[ClassCorrect] != 3 || m[ClassStream] != 1 || len(m) != 2 {
		t.Fatalf("parsed mix = %v", m)
	}
	for _, bad := range []string{"bogus=1", "correct", "correct=x", "correct=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
	// A plan from a single-class mix contains only that class.
	p, err := NewPlan(1, Mix{ClassFault: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Ops {
		if p.Ops[i].Class != ClassFault {
			t.Fatalf("op %d class = %s", i, p.Ops[i].Class)
		}
	}
}

// liveServer builds a full registry-backed API server for end-to-end runs.
func liveServer(t *testing.T) *httptest.Server {
	t.Helper()
	db := dataset.NewEmployeesDB(dataset.EmployeesConfig{Employees: 60, Departments: 4, Seed: 1})
	cat := literal.NewCatalog(db.TableNames(), db.AttributeNames(), db.StringValues(0))
	eng, err := core.NewEngine(core.Config{Grammar: grammar.TestScale(), Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.New(registry.Config{
		Shared: registry.Shared{
			Structure:    eng.StructureComponent(),
			Cache:        eng.SearchCache(),
			TopKLiterals: 5,
		},
		MaxLive: 8,
		Dir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.SetSeed("default", eng, eng.Catalog())
	api := httpapi.New(eng, db)
	api.SetRegistry(reg)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(func() {
		ts.Close()
		api.Close()
	})
	return ts
}

// TestClosedLoopRun drives the full mixed workload against a live server
// briefly and checks the report's arithmetic: tallies reconcile, no
// unexpected errors, every class in the mix saw traffic, and the checksum
// matches an independently generated plan.
func TestClosedLoopRun(t *testing.T) {
	ts := liveServer(t)
	cfg := Config{
		BaseURL:     ts.URL,
		Seed:        7,
		Duration:    1500 * time.Millisecond,
		Concurrency: 4,
		PlanSize:    512,
	}
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	want, err := NewPlan(7, nil, 512)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checksum != want.Checksum() {
		t.Errorf("report checksum %s != independent plan checksum %s", rep.Checksum, want.Checksum())
	}
	if rep.Mode != "closed" {
		t.Errorf("mode = %q", rep.Mode)
	}
	if rep.TotalRequests == 0 {
		t.Fatal("no requests sent")
	}
	if rep.ErrorRate != 0 {
		t.Errorf("error rate %.3f with errors %v — healthy server must produce none", rep.ErrorRate, rep.FirstErrors)
	}
	var sum int64
	for name, c := range rep.Classes {
		if c.Sent != c.OK+c.Shed+c.Errors {
			t.Errorf("class %s: sent %d != ok %d + shed %d + errors %d", name, c.Sent, c.OK, c.Shed, c.Errors)
		}
		if c.OK > 0 && (c.P50Ms <= 0 || c.P99Ms < c.P50Ms || c.MaxMs < c.P99Ms) {
			t.Errorf("class %s: quantiles not ordered: p50=%v p99=%v max=%v", name, c.P50Ms, c.P99Ms, c.MaxMs)
		}
		sum += c.Sent
	}
	if sum != rep.TotalRequests {
		t.Errorf("class sends sum to %d, total is %d", sum, rep.TotalRequests)
	}
	for _, cl := range classes {
		if _, ok := rep.Classes[string(cl)]; !ok {
			t.Errorf("class %s saw no traffic in a %d-request mixed run", cl, rep.TotalRequests)
		}
	}
}

// TestOpenLoopRun checks the paced mode: the achieved rate tracks the
// target (the server is local and fast; the schedule, not the server, is
// the constraint).
func TestOpenLoopRun(t *testing.T) {
	ts := liveServer(t)
	r, err := NewRunner(Config{
		BaseURL:     ts.URL,
		Seed:        11,
		Mix:         Mix{ClassCorrect: 1},
		Duration:    time.Second,
		TargetRPS:   60,
		Concurrency: 8,
		PlanSize:    256,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" || rep.TargetRPS != 60 {
		t.Errorf("mode=%q target=%v", rep.Mode, rep.TargetRPS)
	}
	if rep.AchievedRPS < 30 || rep.AchievedRPS > 90 {
		t.Errorf("achieved %.1f rps against a 60 rps schedule", rep.AchievedRPS)
	}
	if rep.ErrorRate != 0 {
		t.Errorf("error rate %.3f: %v", rep.ErrorRate, rep.FirstErrors)
	}
}
