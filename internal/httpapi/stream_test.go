package httpapi

// stream_test.go covers the clause-streaming HTTP surface: the dictate /
// finalize endpoints (auto-created sessions, lifecycle conflicts, identical
// final SQL to the one-shot path), the SSE event feed, and the SSE chaos
// suite the ISSUE requires — concurrent dictations and subscribers under
// fault injection, then proof of no goroutine leaks and no wedged sessions.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"speakql/internal/faultinject"
	"speakql/internal/stream"
)

func TestStreamDictateFinalize(t *testing.T) {
	s := srv(t)
	frags := []string{"select salary from employees", "where gender equals M"}
	// Empty id auto-creates a session.
	code, out := post(t, s.URL+"/api/stream/dictate", map[string]any{"fragment": frags[0]})
	if code != http.StatusOK {
		t.Fatalf("first fragment: status %d (%v)", code, out)
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("no session id auto-created: %v", out)
	}
	if seq := out["seq"].(float64); seq != 1 {
		t.Errorf("seq = %v", seq)
	}
	code, out = post(t, s.URL+"/api/stream/dictate",
		map[string]any{"id": id, "fragment": frags[1]})
	if code != http.StatusOK || out["seq"].(float64) != 2 {
		t.Fatalf("second fragment: status %d (%v)", code, out)
	}
	if tr := out["transcript"].(string); tr != strings.Join(frags, " ") {
		t.Errorf("transcript = %q", tr)
	}
	code, out = post(t, s.URL+"/api/stream/finalize", map[string]any{"id": id})
	if code != http.StatusOK {
		t.Fatalf("finalize: status %d (%v)", code, out)
	}
	want := testEng.Correct(strings.Join(frags, " ")).Best().SQL
	if got := out["sql"].(string); got != want {
		t.Errorf("finalized SQL %q, one-shot %q", got, want)
	}
	// Double finalize is a lifecycle conflict, not a server error.
	code, out = post(t, s.URL+"/api/stream/finalize", map[string]any{"id": id})
	if code != http.StatusConflict {
		t.Errorf("double finalize: status %d (%v)", code, out)
	}
	// A fragment after finalize transparently opens a fresh dictation.
	code, out = post(t, s.URL+"/api/stream/dictate",
		map[string]any{"id": id, "fragment": "select title from titles"})
	if code != http.StatusOK || out["seq"].(float64) != 1 {
		t.Errorf("fragment after finalize: status %d (%v)", code, out)
	}
}

// Seq keys idempotency within one dictation: after a finalize, the next
// dictation's seq 1 is a new fragment, not a duplicate of the finished
// dictation's first, and a retry of it is still acknowledged only once.
func TestStreamSeqRestartsAfterFinalize(t *testing.T) {
	s := srv(t)
	_, out := post(t, s.URL+"/api/session", map[string]any{})
	id := out["id"].(string)
	for i, f := range []string{"select salary from employees", "where gender equals M"} {
		code, out := post(t, s.URL+"/api/stream/dictate", map[string]any{"id": id, "fragment": f, "seq": i + 1})
		if code != http.StatusOK || out["duplicate"] != nil {
			t.Fatalf("fragment %d: status %d (%v)", i+1, code, out)
		}
	}
	if code, out := post(t, s.URL+"/api/stream/finalize", map[string]any{"id": id}); code != http.StatusOK {
		t.Fatalf("finalize: status %d (%v)", code, out)
	}
	next := map[string]any{"id": id, "fragment": "select title from titles", "seq": 1}
	code, out := post(t, s.URL+"/api/stream/dictate", next)
	if code != http.StatusOK || out["duplicate"] != nil || out["seq"] != 1.0 ||
		out["transcript"] != "select title from titles" {
		t.Fatalf("next dictation's seq 1: status %d (%v), want it applied as fragment 1", code, out)
	}
	code, out = post(t, s.URL+"/api/stream/dictate", next)
	if code != http.StatusOK || out["duplicate"] != true || out["seq"] != 1.0 {
		t.Fatalf("retried seq 1: status %d (%v), want a duplicate ack at seq 1", code, out)
	}
}

func TestStreamUnknownSession(t *testing.T) {
	s := srv(t)
	if code, _ := post(t, s.URL+"/api/stream/dictate",
		map[string]any{"id": "nope", "fragment": "select"}); code != http.StatusNotFound {
		t.Errorf("dictate: status %d", code)
	}
	if code, _ := post(t, s.URL+"/api/stream/finalize",
		map[string]any{"id": "nope"}); code != http.StatusNotFound {
		t.Errorf("finalize: status %d", code)
	}
	resp, err := http.Get(s.URL + "/api/stream/events?session=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("events: status %d", resp.StatusCode)
	}
	// Finalizing a session with no open dictation is a conflict.
	_, out := post(t, s.URL+"/api/session", map[string]any{})
	if code, _ := post(t, s.URL+"/api/stream/finalize",
		map[string]any{"id": out["id"].(string)}); code != http.StatusConflict {
		t.Errorf("finalize without stream: status %d", code)
	}
}

// sseClient reads events off one SSE feed until the context ends or the
// server closes the stream, delivering decoded events on the channel.
func sseClient(ctx context.Context, t *testing.T, url string, events chan<- stream.Event) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev stream.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Errorf("bad SSE payload %q: %v", line, err)
			continue
		}
		select {
		case events <- ev:
		case <-ctx.Done():
			return nil
		}
	}
	return nil
}

func TestStreamEventsSSE(t *testing.T) {
	s := srv(t)
	_, out := post(t, s.URL+"/api/session", map[string]any{})
	id := out["id"].(string)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	events := make(chan stream.Event, 32)
	done := make(chan error, 1)
	go func() { done <- sseClient(ctx, t, s.URL+"/api/stream/events?session="+id, events) }()
	// Give the subscriber a moment to attach before publishing.
	time.Sleep(50 * time.Millisecond)
	post(t, s.URL+"/api/stream/dictate", map[string]any{"id": id, "fragment": "select salary from employees"})
	post(t, s.URL+"/api/stream/dictate", map[string]any{"id": id, "fragment": "where gender equals M"})
	post(t, s.URL+"/api/stream/finalize", map[string]any{"id": id})
	wantKinds := []string{"fragment", "fragment", "finalized"}
	for i, want := range wantKinds {
		select {
		case ev := <-events:
			if ev.Kind != want {
				t.Fatalf("event %d kind = %q, want %q", i, ev.Kind, want)
			}
			if ev.Session != id {
				t.Errorf("event %d session = %q", i, ev.Session)
			}
			if want == "finalized" && ev.SQL == "" {
				t.Error("finalized event has no SQL")
			}
		case <-ctx.Done():
			t.Fatalf("timed out waiting for event %d (%s)", i, want)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("SSE client: %v", err)
	}
}

// TestStreamChaosSSE is the ISSUE's SSE chaos test: concurrent fragment
// dictations and finalizes against multiple sessions, each with SSE
// subscribers attached (including ones that abandon mid-feed), while the
// stream and pipeline stages inject latency, errors, and panics. Afterward:
// every session still answers (nothing wedged), server Close terminates the
// remaining feeds, and the goroutine count returns to baseline (no leaks).
func TestStreamChaosSSE(t *testing.T) {
	api := newAPIServer(t, 0)
	api.SetAdmission(4, 32)
	api.SetRequestTimeout(10 * time.Second)
	api.SetSessionTTL(time.Hour) // sweeper running, nothing evictable mid-test
	ts := serve(t, api)

	const nSessions = 3
	ids := make([]string, nSessions)
	for i := range ids {
		_, out := post(t, ts.URL+"/api/session", map[string]any{})
		ids[i] = out["id"].(string)
	}

	inj, err := faultinject.Parse(
		"seed=4242;stream:error@0.15;structure:latency=1ms@0.3,error@0.1,panic@0.05;literal:error@0.08")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Set(inj)
	defer faultinject.Set(nil)

	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Two subscriber cohorts per session: persistent readers that drain the
	// feed until server close, and quitters that abandon it mid-stream (the
	// slow/gone-client case the non-blocking broadcaster exists for).
	var readers sync.WaitGroup
	drain := make(chan stream.Event, 1024)
	for _, id := range ids {
		url := ts.URL + "/api/stream/events?session=" + id
		readers.Add(1)
		go func() {
			defer readers.Done()
			if err := sseClient(ctx, t, url, drain); err != nil {
				t.Errorf("persistent SSE client: %v", err)
			}
		}()
		readers.Add(1)
		go func() {
			defer readers.Done()
			qctx, qcancel := context.WithTimeout(ctx, 150*time.Millisecond)
			defer qcancel()
			_ = sseClient(qctx, t, url, drain)
		}()
	}
	go func() { // keep the drain channel from ever blocking a client
		for range drain {
		}
	}()

	frags := []string{
		"select salary from employees",
		"where gender equals M",
		"select first name from employees",
		"where salary greater than 50000",
	}
	var wg sync.WaitGroup
	const workers = 6
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				id := ids[(w+rep)%nSessions]
				var code int
				var body map[string]any
				var err error
				if rep%7 == 6 {
					code, body, err = postNoFail(ts.URL+"/api/stream/finalize",
						map[string]any{"id": id})
				} else {
					code, body, err = postNoFail(ts.URL+"/api/stream/dictate",
						map[string]any{"id": id, "fragment": frags[(w+rep)%len(frags)]})
				}
				if err != nil {
					t.Errorf("stream request under chaos: %v", err)
					return
				}
				switch code {
				case http.StatusOK, http.StatusConflict,
					http.StatusInternalServerError, http.StatusServiceUnavailable:
				default:
					t.Errorf("stream request: unexpected status %d (%v)", code, body)
				}
			}
		}(w)
	}
	wg.Wait()
	faultinject.Set(nil)

	if counts := inj.Counts(); counts["stream"].Errors == 0 || counts["structure"].Panics == 0 {
		t.Errorf("chaos fired too little: %+v", counts)
	}

	// Nothing wedged: every session still accepts a fragment promptly.
	for _, id := range ids {
		code, body, err := postNoFail(ts.URL+"/api/stream/dictate",
			map[string]any{"id": id, "fragment": frags[0]})
		if err != nil || code != http.StatusOK {
			t.Errorf("session %s wedged after chaos: %d %v %v", id, code, body, err)
		}
	}

	// Server close ends every remaining feed; the persistent readers exit on
	// their own, without the client-side context having to fire.
	api.Close()
	closed := make(chan struct{})
	go func() { readers.Wait(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE readers did not end after server close")
	}
	close(drain)

	// No goroutine leaks once idle connections drain.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestStreamEvictionClosesFeed: evicting an idle session must end its SSE
// subscribers (the broadcaster closes without touching the session lock).
func TestStreamEvictionClosesFeed(t *testing.T) {
	api := newAPIServer(t, 0)
	api.SetSessionTTL(time.Hour) // manual eviction below; sweeper idle
	ts := serve(t, api)
	_, out := post(t, ts.URL+"/api/session", map[string]any{})
	id := out["id"].(string)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	events := make(chan stream.Event, 8)
	done := make(chan error, 1)
	go func() { done <- sseClient(ctx, t, ts.URL+"/api/stream/events?session="+id, events) }()
	time.Sleep(50 * time.Millisecond)
	if n := api.evictIdleSessions(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("SSE client: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("SSE feed survived its session's eviction")
	}
}
