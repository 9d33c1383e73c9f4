package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/grammar"
	"speakql/internal/literal"
	"speakql/internal/sqlengine"
)

var (
	testSrv *httptest.Server
	testDB  *sqlengine.Database
	testEng *core.Engine
)

func srv(t *testing.T) *httptest.Server {
	t.Helper()
	if testSrv == nil {
		testDB = dataset.NewEmployeesDB(dataset.EmployeesConfig{Employees: 100, Departments: 5, Seed: 1})
		cat := literal.NewCatalog(testDB.TableNames(), testDB.AttributeNames(), testDB.StringValues(0))
		eng, err := core.NewEngine(core.Config{Grammar: grammar.TestScale(), Catalog: cat})
		if err != nil {
			t.Fatal(err)
		}
		testEng = eng
		testSrv = httptest.NewServer(New(eng, testDB).Handler())
	}
	return testSrv
}

func post(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode, out
}

func TestCorrectEndpoint(t *testing.T) {
	s := srv(t)
	code, out := post(t, s.URL+"/api/correct", map[string]any{
		"transcript": "select salary from employees where gender equals M",
		"topk":       3,
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, out)
	}
	cands := out["candidates"].([]any)
	if len(cands) != 3 {
		t.Fatalf("candidates = %d", len(cands))
	}
	first := cands[0].(map[string]any)
	if !strings.HasPrefix(first["sql"].(string), "SELECT Salary FROM Employees WHERE") {
		t.Errorf("sql = %v", first["sql"])
	}
}

// TestCorrectTopKBound: a topk up to maxTopK is served; anything above is
// a 400 in the JSON error shape, answered before the engine runs, so the
// core.correct stage count does not move.
func TestCorrectTopKBound(t *testing.T) {
	s := srv(t)
	corrections := func() float64 {
		return stageField(t, statsSnapshot(t, s.URL), "core.correct", "count")
	}
	const transcript = "select first name from employees where gender equals F"
	before := corrections()
	code, out := post(t, s.URL+"/api/correct", map[string]any{"transcript": transcript, "topk": maxTopK})
	if code != http.StatusOK {
		t.Fatalf("topk %d: status = %d: %v", maxTopK, code, out)
	}
	if d := corrections() - before; d != 1 {
		t.Fatalf("topk %d: core.correct count grew by %v, want 1", maxTopK, d)
	}
	for _, k := range []int{maxTopK + 1, 1_000_000} {
		before := corrections()
		code, out := post(t, s.URL+"/api/correct", map[string]any{"transcript": transcript, "topk": k})
		if code != http.StatusBadRequest {
			t.Fatalf("topk %d: status = %d, want 400: %v", k, code, out)
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, "topk") {
			t.Errorf("topk %d: error = %v, want a message naming topk", k, out)
		}
		if d := corrections() - before; d != 0 {
			t.Errorf("topk %d: core.correct count grew by %v, want 0", k, d)
		}
	}
}

func TestCorrectBadJSON(t *testing.T) {
	s := srv(t)
	resp, err := http.Post(s.URL+"/api/correct", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestSessionFlow(t *testing.T) {
	s := srv(t)
	_, out := post(t, s.URL+"/api/session", map[string]any{})
	id := out["id"].(string)
	if id == "" {
		t.Fatal("no session id")
	}

	code, out := post(t, s.URL+"/api/dictate", map[string]any{
		"id":         id,
		"transcript": "select salary from employees where gender equals M",
	})
	if code != http.StatusOK {
		t.Fatalf("dictate status = %d: %v", code, out)
	}
	if out["dictations"].(float64) != 1 {
		t.Errorf("dictations = %v", out["dictations"])
	}
	sqlText := out["sql"].(string)
	if !strings.Contains(sqlText, "FROM Employees") {
		t.Errorf("sql = %q", sqlText)
	}

	// Clause-level re-dictation.
	code, out = post(t, s.URL+"/api/dictate", map[string]any{
		"id":         id,
		"transcript": "select first name",
		"clause":     true,
	})
	if code != http.StatusOK || !strings.Contains(out["sql"].(string), "FirstName") {
		t.Fatalf("clause dictate: %v", out)
	}

	// Keyboard edit.
	toks := out["tokens"].([]any)
	code, out = post(t, s.URL+"/api/edit", map[string]any{
		"id": id, "op": "insert", "pos": len(toks), "token": "LIMIT",
	})
	if code != http.StatusOK {
		t.Fatalf("edit: %v", out)
	}
	if out["touches"].(float64) == 0 {
		t.Error("edit cost no touches")
	}
	if out["effort"].(float64) != out["touches"].(float64)+out["dictations"].(float64) {
		t.Error("effort mismatch")
	}
}

func TestEditErrors(t *testing.T) {
	s := srv(t)
	code, _ := post(t, s.URL+"/api/edit", map[string]any{
		"id": "nope", "op": "insert", "pos": 0, "token": "x"})
	if code != http.StatusNotFound {
		t.Errorf("unknown session status = %d", code)
	}
	_, out := post(t, s.URL+"/api/session", map[string]any{})
	id := out["id"].(string)
	code, _ = post(t, s.URL+"/api/edit", map[string]any{
		"id": id, "op": "explode", "pos": 0, "token": "x"})
	if code != http.StatusBadRequest {
		t.Errorf("bad op status = %d", code)
	}
}

func TestExecuteEndpoint(t *testing.T) {
	s := srv(t)
	code, out := post(t, s.URL+"/api/execute", map[string]any{
		"sql": "SELECT COUNT ( * ) FROM Employees"})
	if code != http.StatusOK {
		t.Fatalf("execute: %v", out)
	}
	rows := out["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].([]any)[0].(string) != "100" {
		t.Errorf("count = %v", rows[0])
	}
	code, out = post(t, s.URL+"/api/execute", map[string]any{"sql": "garbage"})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("bad sql status = %d (%v)", code, out)
	}
}

// filterHeavy is an /api/execute body whose WHERE clause does all the
// work: every row of the Salaries × Titles × Departments cross product
// scans an IN list of 10,000 values that never matches (69 KB of SQL).
func filterHeavy() string {
	vals := make([]string, 10_000)
	for i := range vals {
		vals[i] = strconv.Itoa(i + 1)
	}
	return "SELECT Salary FROM Salaries , Titles , Departments WHERE Salary IN ( " + strings.Join(vals, " , ") + " )"
}

// Client SQL runs under the request deadline: a query whose unbounded run
// takes far longer than the timeout comes back as a typed 422 within about
// the timeout, instead of holding a core until it finishes.
func TestExecuteHonoursRequestDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	api := newAPIServer(t, 0)
	api.SetRequestTimeout(timeout)
	ts := serve(t, api)
	sql := filterHeavy() // 124·60·4 rows × 10⁴ comparisons: about 6 s unbounded

	// The unbounded run exceeds 10× the timeout: the executor itself
	// stops it at that deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*timeout)
	defer cancel()
	if _, err := sqlengine.RunContext(ctx, api.db, sql); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run under a %v deadline: err = %v, want it stopped by the deadline", 10*timeout, err)
	}

	body, err := json.Marshal(map[string]string{"sql": sql})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp := postRaw(t, ts.URL+"/api/execute", string(body))
	elapsed := time.Since(start)
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || out["code"] != "execute.deadline" {
		t.Fatalf("status %d body %v, want 422 with code execute.deadline", resp.StatusCode, out)
	}
	if elapsed > 2*timeout {
		t.Fatalf("request took %v, want under 2× the %v timeout", elapsed, timeout)
	}
}

func TestSchemaEndpoint(t *testing.T) {
	s := srv(t)
	resp, err := http.Get(s.URL + "/api/schema")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	tables := out["tables"].(map[string]any)
	if len(tables) != 6 {
		t.Errorf("tables = %d", len(tables))
	}
	cols := tables["Salaries"].([]any)
	found := false
	for _, c := range cols {
		if strings.HasPrefix(c.(string), "Salary ") {
			found = true
		}
	}
	if !found {
		t.Errorf("Salaries cols = %v", cols)
	}
}

func TestMethodRouting(t *testing.T) {
	s := srv(t)
	resp, err := http.Get(s.URL + "/api/correct")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed && resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET on POST route = %d", resp.StatusCode)
	}
}

func TestKeyboardEndpoint(t *testing.T) {
	s := srv(t)
	resp, err := http.Get(s.URL + "/api/keyboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out["keywords"]) == 0 || len(out["tables"]) != 6 {
		t.Errorf("keyboard lists: %d keywords, %d tables",
			len(out["keywords"]), len(out["tables"]))
	}
	found := false
	for _, a := range out["attributes"] {
		if a == "Salary" {
			found = true
		}
	}
	if !found {
		t.Error("attributes list missing Salary")
	}
}

func TestIndexPage(t *testing.T) {
	s := srv(t)
	resp, err := http.Get(s.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	page := string(body[:n])
	if resp.StatusCode != http.StatusOK || !strings.Contains(page, "SpeakQL") {
		t.Errorf("index page status=%d", resp.StatusCode)
	}
	for _, needle := range []string{"/api/dictate", "/api/keyboard", "/api/execute"} {
		if !strings.Contains(page, needle) {
			t.Errorf("index page missing %s wiring", needle)
		}
	}
}

func TestCorrectReportsBothStageLatencies(t *testing.T) {
	s := srv(t)
	code, out := post(t, s.URL+"/api/correct", map[string]any{
		"transcript": "select salary from employees where gender equals M",
	})
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, out)
	}
	for _, key := range []string{"structure_ms", "literal_ms"} {
		if _, ok := out[key].(float64); !ok {
			t.Errorf("response missing %s: %v", key, out)
		}
	}
	if out["deadline_hit"].(bool) {
		t.Error("deadline_hit on an ordinary request")
	}
}

func statsSnapshot(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func stageField(t *testing.T, snap map[string]any, stage, field string) float64 {
	t.Helper()
	stages, ok := snap["stages"].(map[string]any)
	if !ok {
		t.Fatalf("no stages in %v", snap)
	}
	st, ok := stages[stage].(map[string]any)
	if !ok {
		return 0 // stage not recorded yet
	}
	return st[field].(float64)
}

func TestStatsEndpointTracksCorrections(t *testing.T) {
	s := srv(t)
	before := statsSnapshot(t, s.URL)
	code, _ := post(t, s.URL+"/api/correct", map[string]any{
		"transcript": "select first name from employees where salary greater than 70000",
	})
	if code != http.StatusOK {
		t.Fatal("correct failed")
	}
	after := statsSnapshot(t, s.URL)
	for _, stage := range []string{"http.correct", "core.correct", "structure.determine", "literal.determine"} {
		if d := stageField(t, after, stage, "count") - stageField(t, before, stage, "count"); d < 1 {
			t.Errorf("stage %s count grew by %v, want >= 1", stage, d)
		}
		if d := stageField(t, after, stage, "total_ns") - stageField(t, before, stage, "total_ns"); d <= 0 {
			t.Errorf("stage %s total_ns grew by %v, want > 0", stage, d)
		}
	}
	cb, _ := before["counters"].(map[string]any)["search.nodes_visited"].(float64)
	ca, _ := after["counters"].(map[string]any)["search.nodes_visited"].(float64)
	if ca <= cb {
		t.Errorf("search.nodes_visited did not grow: %v -> %v", cb, ca)
	}
}

// A cache-enabled server must expose the cache block in /api/stats, with
// hits appearing once a masked shape repeats; the default server (no cache)
// must omit the block. pprof mounts only when enabled.
func TestStatsCacheBlockAndPprof(t *testing.T) {
	db := dataset.NewEmployeesDB(dataset.EmployeesConfig{Employees: 50, Departments: 3, Seed: 9})
	cat := literal.NewCatalog(db.TableNames(), db.AttributeNames(), db.StringValues(0))
	eng, err := core.NewEngine(core.Config{Grammar: grammar.TestScale(), Catalog: cat, StructureCacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	api := New(eng, db)
	api.EnablePprof()
	cs := httptest.NewServer(api.Handler())
	defer cs.Close()

	for i := 0; i < 2; i++ { // same transcript twice → second is a hit
		if code, _ := post(t, cs.URL+"/api/correct", map[string]any{
			"transcript": "select name from employees",
		}); code != http.StatusOK {
			t.Fatal("correct failed")
		}
	}
	stats := statsSnapshot(t, cs.URL)
	cache, ok := stats["cache"].(map[string]any)
	if !ok {
		t.Fatalf("no cache block in stats: %v", stats)
	}
	if hits := cache["hits"].(float64); hits < 1 {
		t.Errorf("cache hits = %v, want >= 1", hits)
	}
	if cache["capacity"].(float64) != 32 {
		t.Errorf("cache capacity = %v", cache["capacity"])
	}
	// The obs counters mirror the same numbers.
	counters := stats["counters"].(map[string]any)
	if counters["cache.search_hits"].(float64) < 1 {
		t.Errorf("cache.search_hits counter missing: %v", counters)
	}
	resp, err := http.Get(cs.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof endpoint status = %d", resp.StatusCode)
	}

	// Cache-less server: no cache block, no pprof.
	plain := srv(t)
	if _, ok := statsSnapshot(t, plain.URL)["cache"]; ok {
		t.Error("cache block present without a cache")
	}
	resp, err = http.Get(plain.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof mounted without -pprof")
	}
}

// postNoFail is a goroutine-safe variant of post: it reports failures as
// error values instead of calling t.Fatal (which must not run off the test
// goroutine).
func postNoFail(url string, body any) (int, map[string]any, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

// Race-focused load test: session dictations and keyboard edits across many
// sessions at once, interleaved with stateless /api/correct traffic and
// direct engine use. Under -race this exercises the per-session locking; the
// assertions verify sessions never bleed into each other.
func TestConcurrentSessionTraffic(t *testing.T) {
	s := srv(t)
	eng := testEng
	const nSessions = 8
	ids := make([]string, nSessions)
	for i := range ids {
		_, out := post(t, s.URL+"/api/session", map[string]any{})
		ids[i] = out["id"].(string)
	}
	transcripts := []string{
		"select salary from employees where gender equals M",
		"select first name from employees",
		"select count of everything from titles",
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < nSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := ids[i]
			for rep := 0; rep < 3; rep++ {
				code, out, err := postNoFail(s.URL+"/api/dictate", map[string]any{
					"id": id, "transcript": transcripts[(i+rep)%len(transcripts)],
				})
				if err != nil || code != http.StatusOK {
					errs <- fmt.Sprintf("dictate %s: %d %v %v", id, code, out, err)
					return
				}
				code, out, err = postNoFail(s.URL+"/api/edit", map[string]any{
					"id": id, "op": "insert", "pos": 0, "token": "SELECT",
				})
				if err != nil || code != http.StatusOK {
					errs <- fmt.Sprintf("edit %s: %d %v %v", id, code, out, err)
					return
				}
			}
			// Each session saw exactly its own 3 dictations plus this one.
			_, out, err := postNoFail(s.URL+"/api/dictate", map[string]any{
				"id": id, "transcript": transcripts[0],
			})
			if err != nil {
				errs <- fmt.Sprintf("final dictate %s: %v", id, err)
				return
			}
			if got := out["dictations"].(float64); got != 4 {
				errs <- fmt.Sprintf("session %s dictations = %v, want 4", id, got)
			}
		}(i)
	}
	// Stateless correction traffic and direct engine use alongside.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				eng.Correct(transcripts[(w+rep)%len(transcripts)])
				code, _, err := postNoFail(s.URL+"/api/correct", map[string]any{
					"transcript": transcripts[rep%len(transcripts)],
				})
				if err != nil || code != http.StatusOK {
					errs <- fmt.Sprintf("correct: %d %v", code, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// The stats literal block groups the voting counters; a correction must
// grow them.
func TestStatsLiteralBlock(t *testing.T) {
	s := srv(t)
	code, _ := post(t, s.URL+"/api/correct", map[string]any{
		"transcript": "select first name from employees",
	})
	if code != http.StatusOK {
		t.Fatal("correct failed")
	}
	stats := statsSnapshot(t, s.URL)
	lit, ok := stats["literal"].(map[string]any)
	if !ok {
		t.Fatalf("stats response has no literal block: %v", stats)
	}
	counters, ok := lit["counters"].(map[string]any)
	if !ok {
		t.Fatalf("literal block has no counters: %v", lit)
	}
	if calls, _ := counters["literal.vote_calls"].(float64); calls < 1 {
		t.Errorf("literal.vote_calls = %v, want >= 1", counters["literal.vote_calls"])
	}
	if nodes, _ := counters["literal.bk_nodes"].(float64); nodes < 1 {
		t.Errorf("literal.bk_nodes = %v, want >= 1", counters["literal.bk_nodes"])
	}
	if _, ok := counters["literal.entries_skipped"]; !ok {
		t.Error("literal.entries_skipped counter missing")
	}
}
