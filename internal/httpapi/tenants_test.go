package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"speakql/internal/registry"
)

// tenantServer builds a registry-backed server sharing the package test
// engine's structure component — the tentpole arrangement: one frozen trie
// arena and search cache, many tenant catalogs.
func tenantServer(t *testing.T, maxLive int) (*httptest.Server, *Server, *registry.Registry) {
	t.Helper()
	srv(t) // ensure testEng/testDB exist
	reg, err := registry.New(registry.Config{
		Shared: registry.Shared{
			Structure:    testEng.StructureComponent(),
			Cache:        testEng.SearchCache(),
			TopKLiterals: 5,
		},
		MaxLive: maxLive,
		Dir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg.SetSeed("default", testEng, testEng.Catalog())
	api := New(testEng, testDB)
	api.SetRegistry(reg)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(func() {
		ts.Close()
		api.Close()
	})
	return ts, api, reg
}

func doJSON(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// TestSessionForDeletedTenantUnwinds replays the session-create/DELETE race
// deterministically: the request acquires its tenant, a concurrent DELETE
// then unregisters it and runs the evict hook, and only after that does the
// request create its session. That session must not stay registered:
// nothing would ever close its feed, because a later DELETE of the
// now-unknown tenant answers 404 without running the hook.
func TestSessionForDeletedTenantUnwinds(t *testing.T) {
	ts, api, reg := tenantServer(t, 4)
	code, _ := doJSON(t, http.MethodPut, ts.URL+"/api/tenants/gone", map[string]any{
		"tables":     []string{"Projects"},
		"attributes": []string{"ProjectName"},
		"values":     []string{"Apollo"},
	})
	if code != http.StatusOK {
		t.Fatalf("PUT = %d", code)
	}
	tn, err := reg.Acquire("gone") // the handler resolves its tenant…
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete("gone"); err != nil { // …a DELETE runs the hook…
		t.Fatal(err)
	}
	before := api.sessionCount()
	api.newSession(tn) // …and the handler creates the session.
	if n := api.sessionCount() - before; n != 0 {
		t.Fatalf("%d session(s) left registered for a deleted tenant", n)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/api/tenants/gone", nil); code != http.StatusNotFound {
		t.Fatalf("second DELETE = %d, want 404", code)
	}
}

func TestTenantLifecycleOverHTTP(t *testing.T) {
	ts, _, reg := tenantServer(t, 4)

	// Register a tenant with its own schema.
	code, out := doJSON(t, http.MethodPut, ts.URL+"/api/tenants/acme", map[string]any{
		"tables":     []string{"Projects", "Milestones"},
		"attributes": []string{"ProjectName", "Owner"},
		"values":     []string{"Apollo", "Artemis", "Gemini"},
		"column_values": map[string][]string{
			"ProjectName": {"Apollo", "Artemis", "Gemini"},
		},
	})
	if code != http.StatusOK {
		t.Fatalf("PUT = %d: %v", code, out)
	}
	if out["tables"].(float64) != 2 || out["values"].(float64) != 3 {
		t.Fatalf("PUT summary = %v", out)
	}

	// Corrections against the tenant use its catalog...
	code, out = post(t, ts.URL+"/api/correct?tenant=acme", map[string]any{
		"transcript": "select project name from projects where project name equals apolo",
	})
	if code != http.StatusOK {
		t.Fatalf("tenant correct = %d: %v", code, out)
	}
	sql := out["candidates"].([]any)[0].(map[string]any)["sql"].(string)
	if !strings.Contains(sql, "Projects") || !strings.Contains(sql, "Apollo") {
		t.Errorf("tenant correction ignored tenant schema: %q", sql)
	}
	// ...while the default request path still serves the seed schema.
	code, out = post(t, ts.URL+"/api/correct", map[string]any{
		"transcript": "select salary from employees",
	})
	if code != http.StatusOK {
		t.Fatalf("seed correct = %d: %v", code, out)
	}
	if sql := out["candidates"].([]any)[0].(map[string]any)["sql"].(string); !strings.Contains(sql, "Employees") {
		t.Errorf("seed correction = %q", sql)
	}
	// The header form resolves identically to the query param.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/keyboard", nil)
	req.Header.Set("X-SpeakQL-Tenant", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var kb map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&kb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tbls := fmt.Sprint(kb["tables"]); !strings.Contains(tbls, "Projects") {
		t.Errorf("keyboard via header = %v", kb["tables"])
	}

	// Incremental update: one value added, its new code inserted into a
	// copy of the values set's BK-tree.
	code, out = doJSON(t, http.MethodPatch, ts.URL+"/api/tenants/acme", map[string]any{
		"add_values": []string{"Mercury"},
	})
	if code != http.StatusOK {
		t.Fatalf("PATCH = %d: %v", code, out)
	}
	wantUp := map[string]any{"added": 1.0, "removed": 0.0, "bk_reused": 0.0, "bk_inserted": 1.0, "bk_rebuilt": 0.0}
	if up := out["update"]; !reflect.DeepEqual(up, wantUp) {
		t.Fatalf("update stats = %v, want %v", up, wantUp)
	}
	if out["values"].(float64) != 4 {
		t.Fatalf("values after PATCH = %v", out["values"])
	}

	// Listing and stats see the tenant.
	code, out = doJSON(t, http.MethodGet, ts.URL+"/api/tenants", nil)
	if code != http.StatusOK || out["seed"] != "default" {
		t.Fatalf("list = %d %v", code, out)
	}
	code, out = doJSON(t, http.MethodGet, ts.URL+"/api/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	rb, ok := out["registry"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing registry block: %v", out)
	}
	if rb["known"].(float64) != 2 { // seed + acme
		t.Errorf("registry.known = %v", rb["known"])
	}
	if _, ok := rb["tenants"].(map[string]any)["tenant.acme.requests"]; !ok {
		t.Errorf("per-tenant request counter missing: %v", rb["tenants"])
	}

	// Delete: the tenant is gone from the API and the registry.
	if code, out = doJSON(t, http.MethodDelete, ts.URL+"/api/tenants/acme", nil); code != http.StatusOK {
		t.Fatalf("DELETE = %d: %v", code, out)
	}
	if code, _ = post(t, ts.URL+"/api/correct?tenant=acme", map[string]any{"transcript": "x"}); code != http.StatusNotFound {
		t.Fatalf("correct on deleted tenant = %d", code)
	}
	if st := reg.Stats(); st.Known != 1 {
		t.Fatalf("registry after delete = %+v", st)
	}
}

func TestTenantSeedImmutableOverHTTP(t *testing.T) {
	ts, _, _ := tenantServer(t, 4)
	if code, _ := doJSON(t, http.MethodPut, ts.URL+"/api/tenants/default",
		map[string]any{"tables": []string{"X"}}); code != http.StatusForbidden {
		t.Errorf("PUT seed = %d, want 403", code)
	}
	if code, _ := doJSON(t, http.MethodDelete, ts.URL+"/api/tenants/default", nil); code != http.StatusForbidden {
		t.Errorf("DELETE seed = %d, want 403", code)
	}
	if code, _ := doJSON(t, http.MethodPatch, ts.URL+"/api/tenants/default",
		map[string]any{"add_values": []string{"x"}}); code != http.StatusForbidden {
		t.Errorf("PATCH seed = %d, want 403", code)
	}
}

func TestTenantErrorsOverHTTP(t *testing.T) {
	ts, _, _ := tenantServer(t, 4)
	if code, _ := doJSON(t, http.MethodPut, ts.URL+"/api/tenants/bad..id",
		map[string]any{"tables": []string{"X"}}); code != http.StatusBadRequest {
		t.Errorf("PUT bad id = %d, want 400", code)
	}
	if code, _ := doJSON(t, http.MethodGet, ts.URL+"/api/tenants/ghost", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown = %d, want 404", code)
	}
	if code, _ := doJSON(t, http.MethodPatch, ts.URL+"/api/tenants/ghost", map[string]any{}); code != http.StatusBadRequest {
		t.Errorf("PATCH empty delta = %d, want 400", code)
	}
	// Unknown tenant on a scoped endpoint: 404 with the JSON envelope.
	code, out := post(t, ts.URL+"/api/correct?tenant=ghost", map[string]any{"transcript": "x"})
	if code != http.StatusNotFound || out["error"] == nil {
		t.Errorf("scoped unknown tenant = %d %v", code, out)
	}
	// Sessions are tenant-scoped too.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/session", bytes.NewReader([]byte("{}")))
	req.Header.Set("X-SpeakQL-Tenant", "ghost")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("session for unknown tenant = %d", resp.StatusCode)
	}
}

// A server given no registry serves its engine as the seed tenant of the
// one New made: unscoped requests work, and explicitly naming another
// tenant is a clean 404.
func TestTenantRoutesWithoutRegistry(t *testing.T) {
	s := srv(t) // package server: no SetRegistry call
	if code, _ := post(t, s.URL+"/api/correct", map[string]any{"transcript": "select salary from employees"}); code != http.StatusOK {
		t.Errorf("unscoped correct without registry = %d", code)
	}
	if code, _ := post(t, s.URL+"/api/correct?tenant=other", map[string]any{"transcript": "x"}); code != http.StatusNotFound {
		t.Errorf("scoped correct without registry = %d", code)
	}
}

// TestErrorEnvelopeOnUnmatchedRoutes pins the JSON error envelope on every
// route's miss paths: a wrong method gets 405 + Allow with a JSON body, an
// unknown path gets 404 with a JSON body — never net/http's plain text,
// which breaks clients that unconditionally parse responses as JSON.
func TestErrorEnvelopeOnUnmatchedRoutes(t *testing.T) {
	s := srv(t)
	cases := []struct {
		method string
		path   string
		want   int
	}{
		// Wrong method against every registered route.
		{http.MethodDelete, "/api/correct", http.StatusMethodNotAllowed},
		{http.MethodGet, "/api/correct", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/api/session", http.StatusMethodNotAllowed},
		{http.MethodPut, "/api/dictate", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/api/stream/dictate", http.StatusMethodNotAllowed},
		{http.MethodGet, "/api/stream/finalize", http.StatusMethodNotAllowed},
		{http.MethodPost, "/api/stream/events", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/api/edit", http.StatusMethodNotAllowed},
		{http.MethodGet, "/api/execute", http.StatusMethodNotAllowed},
		{http.MethodPost, "/api/schema", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/api/keyboard", http.StatusMethodNotAllowed},
		{http.MethodPost, "/api/stats", http.StatusMethodNotAllowed},
		{http.MethodPost, "/api/tenants", http.StatusMethodNotAllowed},
		{http.MethodPost, "/api/tenants/x", http.StatusMethodNotAllowed},
		{http.MethodPost, "/healthz", http.StatusMethodNotAllowed},
		{http.MethodDelete, "/readyz", http.StatusMethodNotAllowed},
		{http.MethodPost, "/", http.StatusMethodNotAllowed},
		// Unknown paths.
		{http.MethodGet, "/api/nope", http.StatusNotFound},
		{http.MethodPost, "/api/tenants/x/extra", http.StatusNotFound},
		{http.MethodGet, "/not/a/route", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, s.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("body is not JSON: %v", err)
			}
			if msg, _ := body["error"].(string); msg == "" {
				t.Fatalf("missing error field: %v", body)
			}
			if tc.want == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
				t.Fatal("405 without Allow header")
			}
		})
	}
}
