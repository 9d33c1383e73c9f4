package router

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// FuzzRouteKey drives route-key extraction with untrusted request parts: a
// path, the ?session= and ?tenant= query values, the X-SpeakQL-Tenant
// header and a body. Nothing may panic, a body within the peek cap comes
// back byte-identical for replay, a body over it is refused, and the key
// follows the documented precedence: a non-empty ?session=, then a JSON
// body whose "id" is a non-empty string, then ?tenant=, the header, and a
// single-segment /api/tenants/{id} path, else no key.
func FuzzRouteKey(f *testing.F) {
	for _, seed := range []struct{ path, session, tenant, header, body string }{
		{"/api/stream/dictate", "", "", "", `{"id":"r1-s7","fragment":"select salary"}`},
		{"/api/stream/events", "r2-s3", "", "", ""},
		{"/api/stream/dictate", "r2-s3", "acme", "", `{"id":"r1-s7"}`},
		{"/api/correct", "", "acme", "globex", `{"transcript":"select salary from employees"}`},
		{"/api/correct", "", "", "globex", `{"id":""}`},
		{"/api/correct", "", "", "", `{"id":7}`},
		{"/api/correct", "", "", "", `not json`},
		{"/api/tenants/acme", "", "", "", `{"tables":["t"]}`},
		{"/api/tenants/acme/values", "", "", "", ""},
		{"/api/tenants/", "", "", "", ""},
		{"/api/correct", "", "", "", ""},
	} {
		f.Add(seed.path, seed.session, seed.tenant, seed.header, []byte(seed.body))
	}
	// The fixed case a mutator rarely reaches: a body one byte over the
	// peek cap is refused. It stays out of the corpus so mutation stays cheap.
	checkRouteKey(f, "/api/stream/dictate", "", "", "", bytes.Repeat([]byte("x"), maxPeekBytes+1))
	f.Fuzz(func(t *testing.T, path, sessionQ, tenantQ, header string, body []byte) {
		checkRouteKey(t, path, sessionQ, tenantQ, header, body)
	})
}

// checkRouteKey runs routeKey on one request built from its parts and
// checks the outcome against the cap, the replay body and wantRouteKey.
func checkRouteKey(t testing.TB, path, sessionQ, tenantQ, header string, body []byte) {
	t.Helper()
	q := url.Values{}
	if sessionQ != "" {
		q.Set("session", sessionQ)
	}
	if tenantQ != "" {
		q.Set("tenant", tenantQ)
	}
	r := &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: path, RawQuery: q.Encode()},
		Header: http.Header{},
		Body:   io.NopCloser(bytes.NewReader(body)),
	}
	if header != "" {
		r.Header.Set("X-SpeakQL-Tenant", header)
	}
	key, got, err := (&Router{}).routeKey(r)
	if len(body) > maxPeekBytes {
		if err == nil || key != "" {
			t.Fatalf("body of %d bytes over the %d cap: key %q, err %v", len(body), maxPeekBytes, key, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("body of %d bytes: %v", len(body), err)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("replay body differs: got %d bytes, sent %d", len(got), len(body))
	}
	if want := wantRouteKey(path, sessionQ, tenantQ, header, body); key != want {
		t.Fatalf("key = %q, want %q (path %q, session %q, tenant %q, header %q, body %q)",
			key, want, path, sessionQ, tenantQ, header, body)
	}
}

// wantRouteKey is the documented precedence of routeKey. A body's "id" is
// read the way the replicas decode it: encoding/json into a string field.
func wantRouteKey(path, sessionQ, tenantQ, header string, body []byte) string {
	if sessionQ != "" {
		return "session/" + sessionQ
	}
	var peek struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &peek) == nil && peek.ID != "" {
		return "session/" + peek.ID
	}
	for _, tenant := range []string{tenantQ, header} {
		if tenant != "" {
			return "tenant/" + tenant
		}
	}
	if rest, ok := strings.CutPrefix(path, "/api/tenants/"); ok && rest != "" && !strings.Contains(rest, "/") {
		return "tenant/" + rest
	}
	return ""
}
