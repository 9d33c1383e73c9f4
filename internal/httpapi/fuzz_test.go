package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzStreamRequest posts arbitrary bodies to the stream dictate and
// finalize endpoints — client input, seq idempotency key included. Each
// input runs against a live session that holds one fragment at seq 1;
// "$ID" in the body stands for that session's id. Every answer must be a
// JSON body with a 200, 400, 404 or 409 status, and no request may reach
// the panic-recovery middleware.
func FuzzStreamRequest(f *testing.F) {
	for _, seed := range []struct {
		finalize bool
		body     string
	}{
		{false, `{"id":"$ID","fragment":"where gender equals M","seq":2}`},
		{false, `{"id":"$ID","fragment":"where gender equals M","seq":1}`},
		{false, `{"id":"$ID","fragment":"where gender equals M","seq":0}`},
		{false, `{"id":"$ID","fragment":"where gender equals M","seq":-1}`},
		{false, `{"id":"$ID","fragment":"where gender equals M","seq":1000000}`},
		{false, `{"id":"$ID","fragment":"where gender equals M","seq":9223372036854775807}`},
		{false, `{"fragment":"select title from titles","seq":1}`},
		{false, `{"id":"nope","fragment":"select","seq":1}`},
		{false, `{"id":"$ID","fragment":7}`},
		{true, `{"id":"$ID"}`},
		{true, `{"id":"nope"}`},
		{true, `{}`},
		{true, `not json`},
	} {
		f.Add(seed.finalize, seed.body)
	}
	api := newAPIServer(f, 0)
	api.SetSessionTTL(time.Hour)
	h := api.Handler()
	f.Cleanup(api.Close)
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	f.Fuzz(func(t *testing.T, finalize bool, body string) {
		// A fresh session per input keeps every input reproducible alone.
		defer api.evictIdleSessions(time.Now().Add(2 * time.Hour))
		rec := post("/api/stream/dictate", `{"fragment":"select salary from employees","seq":1}`)
		var live struct{ ID string }
		if err := json.Unmarshal(rec.Body.Bytes(), &live); rec.Code != http.StatusOK || err != nil || live.ID == "" {
			t.Fatalf("opening the live session: status %d, body %s", rec.Code, rec.Body)
		}
		path := "/api/stream/dictate"
		if finalize {
			path = "/api/stream/finalize"
		}
		panics := api.reg.Snapshot().Counters["panic.recovered"]
		rec = post(path, strings.ReplaceAll(body, "$ID", live.ID))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusConflict:
		default:
			t.Fatalf("%s %q: status %d, body %s", path, body, rec.Code, rec.Body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %q: body is not JSON: %s", path, body, rec.Body)
		}
		if got := api.reg.Snapshot().Counters["panic.recovered"]; got != panics {
			t.Fatalf("%s %q: recovered %d panics", path, body, got-panics)
		}
	})
}
