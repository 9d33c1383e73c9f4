package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/faultinject"
	"speakql/internal/grammar"
	"speakql/internal/literal"
)

// newAPIServer builds an isolated Server (own engine, small corpus) for
// tests that mutate server-level state — admission, TTLs, fault injection —
// and must not disturb the shared fixture.
func newAPIServer(t testing.TB, cacheSize int) *Server {
	t.Helper()
	db := dataset.NewEmployeesDB(dataset.EmployeesConfig{Employees: 60, Departments: 4, Seed: 7})
	cat := literal.NewCatalog(db.TableNames(), db.AttributeNames(), db.StringValues(0))
	eng, err := core.NewEngine(core.Config{Grammar: grammar.TestScale(), Catalog: cat,
		StructureCacheSize: cacheSize})
	if err != nil {
		t.Fatal(err)
	}
	return New(eng, db)
}

func serve(t *testing.T, api *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(func() {
		ts.Close()
		api.Close()
	})
	return ts
}

// postRaw posts a pre-encoded body and returns the raw response for header
// and status inspection. The caller must close the body.
func postRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// Decode hardening: oversized, unknown-field, and malformed bodies must all
// be answered with a 400 that says what was wrong, never with a hang or an
// opaque 500.
func TestDecodeHardening(t *testing.T) {
	s := srv(t)
	oversized := `{"transcript":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	cases := []struct {
		name     string
		body     string
		wantFrag string
	}{
		{"oversized body", oversized, "exceeds"},
		{"unknown field", `{"transcript":"select salary","bogus":1}`, "unknown request field"},
		{"malformed json", `{not json`, "malformed request body"},
		{"wrong field type", `{"transcript":42}`, "malformed request body"},
		{"empty body", ``, "malformed request body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postRaw(t, s.URL+"/api/correct", tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var out map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("400 body is not JSON: %v", err)
			}
			msg, _ := out["error"].(string)
			if !strings.Contains(msg, tc.wantFrag) {
				t.Errorf("error %q does not mention %q", msg, tc.wantFrag)
			}
		})
	}
	// The same limits guard the session endpoints.
	resp := postRaw(t, s.URL+"/api/dictate", `{"id":"s1","nope":true}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("dictate unknown field: status = %d, want 400", resp.StatusCode)
	}
}

func TestHealthzAndReadyz(t *testing.T) {
	api := newAPIServer(t, 0)
	ts := serve(t, api)

	get := func(path string) (int, map[string]any) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s body not JSON: %v", path, err)
		}
		return resp.StatusCode, out
	}

	if code, out := get("/healthz"); code != http.StatusOK || out["status"] != "ok" {
		t.Errorf("healthz = %d %v", code, out)
	}
	if code, out := get("/readyz"); code != http.StatusOK || out["status"] != "ready" {
		t.Errorf("readyz = %d %v", code, out)
	}
	// Draining: readiness flips, liveness stays up.
	api.SetReady(false)
	if code, out := get("/readyz"); code != http.StatusServiceUnavailable || out["status"] != "draining" {
		t.Errorf("draining readyz = %d %v", code, out)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200", code)
	}
	api.SetReady(true)
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz after recover = %d, want 200", code)
	}
}

// Session GC: an idle session past the TTL is evicted (deterministically,
// via the sweeper's internals) and later requests see a clean 404.
func TestSessionEvictedAfterTTL(t *testing.T) {
	api := newAPIServer(t, 0)
	api.SetSessionTTL(time.Hour)
	ts := serve(t, api)

	_, out := post(t, ts.URL+"/api/session", map[string]any{})
	id := out["id"].(string)

	// Fresh session: not evicted at the current time.
	if n := api.evictIdleSessions(time.Now()); n != 0 {
		t.Fatalf("fresh session evicted: %d", n)
	}
	code, _ := post(t, ts.URL+"/api/dictate", map[string]any{
		"id": id, "transcript": "select salary from employees"})
	if code != http.StatusOK {
		t.Fatalf("dictate before eviction: %d", code)
	}

	// Two hours later the session has been idle past the TTL.
	if n := api.evictIdleSessions(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("evicted = %d, want 1", n)
	}
	code, body := post(t, ts.URL+"/api/dictate", map[string]any{
		"id": id, "transcript": "select salary from employees"})
	if code != http.StatusNotFound {
		t.Fatalf("dictate after eviction: %d %v, want 404", code, body)
	}
	stats := statsSnapshot(t, ts.URL)
	res := stats["resilience"].(map[string]any)
	if evicted := res["sessions_evicted"].(float64); evicted < 1 {
		t.Errorf("sessions_evicted = %v, want >= 1", evicted)
	}
}

// The background sweeper itself evicts without any manual call.
func TestSessionSweeperRuns(t *testing.T) {
	api := newAPIServer(t, 0)
	api.SetSessionTTL(40 * time.Millisecond)
	ts := serve(t, api)

	post(t, ts.URL+"/api/session", map[string]any{})
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := api.sessionCount()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweeper never evicted the idle session (%d left)", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// deadline_hit and degradation must agree: a request whose deadline expired
// can never claim full fidelity.
func TestDeadlineDegradationAgreement(t *testing.T) {
	api := newAPIServer(t, 0)
	api.SetRequestTimeout(time.Nanosecond) // expired before any work
	ts := serve(t, api)

	code, out := post(t, ts.URL+"/api/correct", map[string]any{
		"transcript": "select salary from employees"})
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, out)
	}
	if !out["deadline_hit"].(bool) {
		t.Fatal("deadline_hit = false with a 1ns budget")
	}
	level, _ := out["degradation"].(string)
	if level == core.DegradationFull || level == "" {
		t.Errorf("degradation = %q after deadline hit, want a degraded level", level)
	}
	// An expired-before-search request sheds: no candidates, and never a
	// half-filled one.
	if cands, _ := out["candidates"].([]any); len(cands) != 0 {
		t.Errorf("shed response carries candidates: %v", cands)
	}

	// The healthy path reports the complementary pair.
	s := srv(t)
	code, out = post(t, s.URL+"/api/correct", map[string]any{
		"transcript": "select salary from employees"})
	if code != http.StatusOK {
		t.Fatal("healthy correct failed")
	}
	if out["deadline_hit"].(bool) {
		t.Error("deadline_hit on a healthy request")
	}
	if out["degradation"] != core.DegradationFull {
		t.Errorf("degradation = %v on a healthy request, want full", out["degradation"])
	}
}

// Dictate responses carry the degradation level too.
func TestDictateReportsDegradation(t *testing.T) {
	s := srv(t)
	_, out := post(t, s.URL+"/api/session", map[string]any{})
	id := out["id"].(string)
	code, out := post(t, s.URL+"/api/dictate", map[string]any{
		"id": id, "transcript": "select salary from employees"})
	if code != http.StatusOK {
		t.Fatalf("dictate: %d %v", code, out)
	}
	if out["degradation"] != core.DegradationFull {
		t.Errorf("degradation = %v, want full", out["degradation"])
	}
	if out["deadline_hit"].(bool) {
		t.Error("deadline_hit on a healthy dictation")
	}
}

// An injected panic inside the pipeline must come back as a 500 JSON error
// (counter panic.recovered), and the session that was dictating must not be
// left locked.
func TestPanicRecoveryMiddleware(t *testing.T) {
	api := newAPIServer(t, 0)
	ts := serve(t, api)

	_, out := post(t, ts.URL+"/api/session", map[string]any{})
	id := out["id"].(string)

	before := statsSnapshot(t, ts.URL)
	panicsBefore, _ := before["resilience"].(map[string]any)["panics_recovered"].(float64)

	inj, err := faultinject.Parse("seed=3;structure:panic@1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)
	clear := func() { faultinject.Set(nil) }
	defer clear()

	for _, path := range []string{"/api/correct", "/api/dictate"} {
		body := map[string]any{"transcript": "select salary from employees"}
		if path == "/api/dictate" {
			body["id"] = id
		}
		code, out := post(t, ts.URL+path, body)
		if code != http.StatusInternalServerError {
			t.Fatalf("%s with injected panic: status = %d %v, want 500", path, code, out)
		}
		msg, _ := out["error"].(string)
		if !strings.Contains(msg, "injected structure panic") {
			t.Errorf("%s error = %q, want the injected panic", path, msg)
		}
	}

	clear()
	// The session lock was released on the panic path: the session still
	// serves requests.
	code, out := post(t, ts.URL+"/api/dictate", map[string]any{
		"id": id, "transcript": "select salary from employees"})
	if code != http.StatusOK {
		t.Fatalf("session wedged after panic: %d %v", code, out)
	}

	after := statsSnapshot(t, ts.URL)
	panicsAfter, _ := after["resilience"].(map[string]any)["panics_recovered"].(float64)
	if panicsAfter-panicsBefore != 2 {
		t.Errorf("panic.recovered grew by %v, want 2", panicsAfter-panicsBefore)
	}
}

// Admission at the HTTP level: with one permit and no queue, a second
// concurrent correction is shed with 503 + Retry-After while the first is
// in flight.
func TestAdmissionShedsOverHTTP(t *testing.T) {
	api := newAPIServer(t, 0)
	api.SetAdmission(1, 0)
	api.SetRequestTimeout(5 * time.Second)
	ts := serve(t, api)

	inj, err := faultinject.Parse("seed=5;structure:latency=400ms@1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)
	defer faultinject.Set(nil)

	slow := make(chan error, 1)
	go func() {
		code, _, err := postNoFail(ts.URL+"/api/correct", map[string]any{
			"transcript": "select salary from employees"})
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("unexpected status %d", code)
		}
		slow <- err
	}()
	// Wait until the slow request holds the permit.
	deadline := time.Now().Add(2 * time.Second)
	for api.gate.stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never acquired the permit")
		}
		time.Sleep(5 * time.Millisecond)
	}

	raw, err := json.Marshal(map[string]any{"transcript": "select salary from employees"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/correct", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("concurrent request status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("503 body not JSON: %v", err)
	}
	if out["degradation"] != core.DegradationShed {
		t.Errorf("shed degradation = %v, want shed", out["degradation"])
	}
	if err := <-slow; err != nil {
		t.Fatalf("slow request failed: %v", err)
	}

	stats := statsSnapshot(t, ts.URL)
	if shed := stats["resilience"].(map[string]any)["admission_shed"].(float64); shed < 1 {
		t.Errorf("admission_shed = %v, want >= 1", shed)
	}
	adm, ok := stats["admission"].(map[string]any)
	if !ok {
		t.Fatalf("no admission block in stats: %v", stats)
	}
	if adm["max_inflight"].(float64) != 1 {
		t.Errorf("admission.max_inflight = %v", adm["max_inflight"])
	}
}
