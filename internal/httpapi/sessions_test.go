package httpapi

// sessions_test.go pins the session registry's isolation contract: a
// stalled eviction scan never delays lookups or dictations on any other
// session, and eviction never waits on a session's correction lock.

import (
	"net/http"
	"slices"
	"testing"
	"time"

	"speakql/internal/obs"
	"speakql/internal/stream"
)

// twoSessions creates two HTTP sessions and returns their ids.
func twoSessions(t *testing.T, base string) (string, string) {
	t.Helper()
	var ids [2]string
	for i := range ids {
		_, out := post(t, base+"/api/session", map[string]any{})
		ids[i] = out["id"].(string)
	}
	return ids[0], ids[1]
}

// loadEntry returns the registered entry for id.
func loadEntry(t *testing.T, api *Server, id string) *sessionEntry {
	t.Helper()
	v, ok := api.sessions.Load(id)
	if !ok {
		t.Fatalf("session %s not registered", id)
	}
	return v.(*sessionEntry)
}

// stallScanOn starts an eviction scan that evicts nothing but stalls in its
// Range callback on entry until release closes or hold passes. It returns
// once the scan has reached entry; done closes when the scan returns.
func stallScanOn(api *Server, entry *sessionEntry, release <-chan struct{}, hold time.Duration) (done <-chan struct{}) {
	reached, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		api.evictSessions(func(e *sessionEntry) bool {
			if e == entry {
				close(reached)
				select {
				case <-release:
				case <-time.After(hold):
				}
			}
			return false
		})
	}()
	<-reached
	return finished
}

// An eviction scan stalled on session A must not delay a dictation on
// session B. (This test and the next keep the names they had when
// sessions lived in locked shards.)
func TestShardIndependence(t *testing.T) {
	api := newAPIServer(t, 0)
	ts := serve(t, api)
	idA, idB := twoSessions(t, ts.URL)

	const hold = 600 * time.Millisecond
	release := make(chan struct{})
	done := stallScanOn(api, loadEntry(t, api, idA), release, hold)

	start := time.Now()
	code, out := post(t, ts.URL+"/api/dictate", map[string]any{
		"id": idB, "transcript": "select salary from employees",
	})
	elapsed := time.Since(start)
	close(release)
	<-done
	if code != http.StatusOK {
		t.Fatalf("dictate on session B: %d %v", code, out)
	}
	if elapsed >= hold/2 {
		t.Errorf("dictation on session B took %v while a scan was stalled on session A — sessions are not independent", elapsed)
	}
}

// The sweeper must evict idle sessions promptly even while another
// eviction scan is stalled on one of them and a blocking correction is in
// flight on it: the sweep holds no lock across its scan, and broadcaster
// closes never wait behind a session's correction lock.
func TestEvictionShardIsolation(t *testing.T) {
	api := newAPIServer(t, 0)
	ts := serve(t, api) // TTL set after Handler(), so no background sweeper races the manual evict below
	api.SetSessionTTL(10 * time.Millisecond)
	idA, idB := twoSessions(t, ts.URL)

	// Simulate a blocking correction in flight on session A: dictations hold
	// the session's own lock for their whole correction, so hold it here.
	entryA := loadEntry(t, api, idA)
	entryA.mu.Lock()
	defer entryA.mu.Unlock()
	// And stall a second eviction scan in its callback on session A.
	release := make(chan struct{})
	done := stallScanOn(api, entryA, release, time.Second)
	defer func() {
		close(release)
		<-done
	}()

	// Let both sessions go idle past the TTL, then evict with the correction
	// and the other scan still blocked. The sweep must return promptly and
	// still evict B.
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	n := api.evictIdleSessions(time.Now())
	elapsed := time.Since(start)
	if elapsed > 100*time.Millisecond {
		t.Errorf("eviction took %v behind a stalled scan and a blocked correction — it must never wait on either", elapsed)
	}
	if n < 2 {
		t.Errorf("evicted %d sessions, want both idle sessions gone", n)
	}
	if _, ok := api.sessions.Load(idB); ok {
		t.Error("session B still registered after eviction")
	}
}

// The registry's helpers keep session semantics: lookups route to the
// right entry, the count tallies, and removal by predicate returns exactly
// the removed entries' ids.
func TestShardedSessionMapBasics(t *testing.T) {
	s := &Server{reg: obs.NewRegistry()}
	ids := []string{"s1", "s2", "s3", "s99", "stream-7", "x"}
	for _, id := range ids {
		s.sessions.Store(id, &sessionEntry{tenant: id, events: stream.NewBroadcaster()})
	}
	if n := s.sessionCount(); n != len(ids) {
		t.Fatalf("sessionCount = %d, want %d", n, len(ids))
	}
	for _, id := range ids {
		e, ok := s.session(id)
		if !ok || e.tenant != id {
			t.Fatalf("session(%q) = %v, %v", id, e, ok)
		}
	}
	if _, ok := s.session("nope"); ok {
		t.Fatal("phantom session")
	}
	removed := s.evictSessions(func(e *sessionEntry) bool { return e.tenant[0] == 's' })
	slices.Sort(removed)
	if want := []string{"s1", "s2", "s3", "s99", "stream-7"}; !slices.Equal(removed, want) || s.sessionCount() != 1 {
		t.Fatalf("evictSessions removed %q, left %d; want %q, left 1", removed, s.sessionCount(), want)
	}
	if e, ok := s.session("x"); !ok || e.tenant != "x" {
		t.Fatalf("survivor x = %v, %v", e, ok)
	}
}
