package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"speakql/internal/session"
)

// replica builds one store-connected Server over the shared test engine.
func replica(t *testing.T, node string, st session.Store) (*Server, *httptest.Server) {
	t.Helper()
	srv(t) // initialize testEng/testDB
	s := New(testEng, testDB)
	s.SetNodeID(node)
	s.SetSessionStore(st)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	return s, hs
}

// A session dictated on replica A must continue on replica B from its last
// checkpoint: same display, resumed marker set, fragment numbering intact,
// and the finalized SQL identical to a session that never moved.
func TestSessionHandoffBetweenReplicas(t *testing.T) {
	st := session.NewMemStore()
	_, a := replica(t, "ra", st)
	_, b := replica(t, "rb", st)

	// Control: the full dictation on one replica.
	code, ctl := post(t, a.URL+"/api/stream/dictate", map[string]any{"fragment": "select salary from employees"})
	if code != http.StatusOK {
		t.Fatalf("control dictate: %d %v", code, ctl)
	}
	ctlID := ctl["id"].(string)
	post(t, a.URL+"/api/stream/dictate", map[string]any{"id": ctlID, "fragment": "where gender equals M"})
	post(t, a.URL+"/api/stream/dictate", map[string]any{"id": ctlID, "fragment": "and salary greater than 50000"})
	_, ctlFin := post(t, a.URL+"/api/stream/finalize", map[string]any{"id": ctlID})

	// Handoff: two fragments on A, then the tail and finalize on B.
	code, out := post(t, a.URL+"/api/stream/dictate", map[string]any{"fragment": "select salary from employees"})
	if code != http.StatusOK {
		t.Fatalf("dictate: %d %v", code, out)
	}
	id := out["id"].(string)
	post(t, a.URL+"/api/stream/dictate", map[string]any{"id": id, "fragment": "where gender equals M"})

	code, moved := post(t, b.URL+"/api/stream/dictate", map[string]any{"id": id, "fragment": "and salary greater than 50000"})
	if code != http.StatusOK {
		t.Fatalf("dictate on new replica: %d %v", code, moved)
	}
	if moved["resumed"] != true {
		t.Fatalf("handoff response lacks resumed marker: %v", moved)
	}
	if seq := moved["seq"].(float64); seq != 3 {
		t.Fatalf("fragment numbering broke across handoff: seq = %v", seq)
	}
	code, fin := post(t, b.URL+"/api/stream/finalize", map[string]any{"id": id})
	if code != http.StatusOK {
		t.Fatalf("finalize on new replica: %d %v", code, fin)
	}
	if fin["sql"] != ctlFin["sql"] {
		t.Fatalf("handoff diverged from uninterrupted control:\n%v\n%v", fin["sql"], ctlFin["sql"])
	}
}

// The Resume-Ns header rides only on responses that actually restored.
func TestResumeHeaderOnHandoffOnly(t *testing.T) {
	st := session.NewMemStore()
	_, a := replica(t, "ha", st)
	_, b := replica(t, "hb", st)
	_, out := post(t, a.URL+"/api/stream/dictate", map[string]any{"fragment": "select salary from employees"})
	id := out["id"].(string)

	resp, err := http.Post(b.URL+"/api/stream/dictate", "application/json",
		jsonBody(t, map[string]any{"id": id, "fragment": "where gender equals M"}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(resumeHeader) == "" {
		t.Fatal("restored response missing resume header")
	}
	resp, err = http.Post(b.URL+"/api/stream/dictate", "application/json",
		jsonBody(t, map[string]any{"id": id, "fragment": "and salary greater than 50000"}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(resumeHeader) != "" {
		t.Fatal("already-local session set the resume header")
	}
}

// noCheckpoints is a replica's view of the fleet store with checkpointing
// off: restores still read the store, but no snapshot is ever saved.
type noCheckpoints struct{ session.Store }

func (noCheckpoints) Save(*session.Snapshot) error { return nil }

// A replica that does not checkpoint leaves nothing to restore: the session
// is typed lost on the next replica, not silently recreated.
func TestSessionLostIsTyped(t *testing.T) {
	st := session.NewMemStore()
	_, a := replica(t, "la", noCheckpoints{st})
	_, b := replica(t, "lb", st)
	_, out := post(t, a.URL+"/api/stream/dictate", map[string]any{"fragment": "select salary from employees"})
	id := out["id"].(string)
	code, lost := post(t, b.URL+"/api/stream/dictate", map[string]any{"id": id, "fragment": "where gender equals M"})
	if code != http.StatusNotFound {
		t.Fatalf("lost session answered %d: %v", code, lost)
	}
	if lost["code"] != "stream.lost" {
		t.Fatalf("lost session not typed: %v", lost)
	}
}

// A snapshot whose stream state cannot be rebuilt — an unknown phase, or
// an idle dictation with fragments — is unreadable: the session is typed
// lost instead of resuming as an empty dictation that drops its fragments.
func TestCorruptSnapshotPhaseIsLost(t *testing.T) {
	st := session.NewMemStore()
	_, b := replica(t, "cb", st)
	for i, phase := range []string{"paused", "idle"} {
		id := fmt.Sprintf("ca-s%d", i+1)
		snap := &session.Snapshot{ID: id, Stream: &session.StreamSnapshot{
			Phase: phase, Fragments: []string{"select salary from employees"}, Seq: 1}}
		if err := st.Save(snap); err != nil {
			t.Fatal(err)
		}
		code, lost := post(t, b.URL+"/api/stream/dictate", map[string]any{"id": id, "fragment": "where gender equals M"})
		if code != http.StatusNotFound || lost["code"] != "stream.lost" {
			t.Fatalf("phase %q: answered %d %v, want 404 stream.lost", phase, code, lost)
		}
	}
}

// Satellite (c), sequential half: once the TTL sweeper evicts a session, the
// snapshot dies fleet-wide — a later handoff must get the typed 404, not a
// resurrected session.
func TestEvictionKillsSnapshotFleetWide(t *testing.T) {
	st := session.NewMemStore()
	sa, a := replica(t, "ea", st)
	sa.SetSessionTTL(time.Hour)
	_, b := replica(t, "eb", st)
	_, out := post(t, a.URL+"/api/stream/dictate", map[string]any{"fragment": "select salary from employees"})
	id := out["id"].(string)
	if st.Len() == 0 {
		t.Fatal("no checkpoint written")
	}
	if n := sa.evictIdleSessions(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	if st.Len() != 0 {
		t.Fatalf("eviction left %d snapshots behind", st.Len())
	}
	code, lost := post(t, b.URL+"/api/stream/dictate", map[string]any{"id": id, "fragment": "where gender equals M"})
	if code != http.StatusNotFound || lost["code"] != "stream.lost" {
		t.Fatalf("evicted session not typed lost: %d %v", code, lost)
	}
}

// Satellite (c), racing half: TTL eviction on the owning replica racing a
// handoff restore on another must resolve to exactly one of two clean
// outcomes — a fully live resumed session (200 with complete state) or the
// typed lost 404 — never a half-restored session or a malformed verdict.
// Run with -race: the restore's register-then-recheck and the sweeper's
// remove-then-delete overlap here on every iteration.
func TestEvictionRacingHandoffNeverHalfRestores(t *testing.T) {
	st := session.NewMemStore()
	sa, a := replica(t, "ga", st)
	sa.SetSessionTTL(time.Hour)
	_, b := replica(t, "gb", st)
	for i := 0; i < 30; i++ {
		_, out := post(t, a.URL+"/api/stream/dictate", map[string]any{"fragment": "select salary from employees"})
		id, okID := out["id"].(string)
		if !okID {
			t.Fatalf("iteration %d: malformed create: %v", i, out)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			sa.evictIdleSessions(time.Now().Add(2 * time.Hour))
		}()
		code, moved := post(t, b.URL+"/api/stream/dictate",
			map[string]any{"id": id, "fragment": fmt.Sprintf("where salary greater than %d", 1000+i)})
		wg.Wait()
		switch code {
		case http.StatusOK:
			// Fully live: the complete stream state must be present.
			if _, ok := moved["sql"].(string); !ok {
				t.Fatalf("iteration %d: resumed session with partial state: %v", i, moved)
			}
			if seq, ok := moved["seq"].(float64); !ok || seq != 2 {
				t.Fatalf("iteration %d: resumed session lost its fragments: %v", i, moved)
			}
		case http.StatusNotFound:
			if moved["code"] != "stream.lost" {
				t.Fatalf("iteration %d: lost verdict not typed: %v", i, moved)
			}
		default:
			t.Fatalf("iteration %d: race produced %d: %v", i, code, moved)
		}
		// Clean up whichever replica holds the session.
		sa.evictIdleSessions(time.Now().Add(2 * time.Hour))
	}
}

// A stale copy whose dictation is finalized must not swallow the next
// dictation's clauses: A dictates seq 1 and 2 and finalizes, B takes the
// session over and applies the next dictation's seq 1, and A — answering
// that dictation's seq 2 — must resync and apply it as seq 2 on top of B's
// clause rather than open a new dictation with it.
func TestStaleFinalizedCopyResyncsNextDictation(t *testing.T) {
	st := session.NewMemStore()
	_, a := replica(t, "fa", st)
	_, b := replica(t, "fb", st)
	_, out := post(t, a.URL+"/api/stream/dictate", map[string]any{"fragment": "select salary from employees", "seq": 1})
	id := out["id"].(string)
	post(t, a.URL+"/api/stream/dictate", map[string]any{"id": id, "fragment": "where gender equals M", "seq": 2})
	if code, fin := post(t, a.URL+"/api/stream/finalize", map[string]any{"id": id}); code != http.StatusOK {
		t.Fatalf("finalize: %d %v", code, fin)
	}
	code, moved := post(t, b.URL+"/api/stream/dictate", map[string]any{"id": id, "fragment": "select first name from employees", "seq": 1})
	if code != http.StatusOK || moved["seq"] != float64(1) {
		t.Fatalf("next dictation on B: %d %v", code, moved)
	}
	code, back := post(t, a.URL+"/api/stream/dictate", map[string]any{"id": id, "fragment": "where salary greater than 50000", "seq": 2})
	if code != http.StatusOK {
		t.Fatalf("seq 2 on stale A: %d %v", code, back)
	}
	if back["seq"] != float64(2) || back["resumed"] != true {
		t.Fatalf("stale A lost B's clause: seq = %v, resumed = %v (%v)", back["seq"], back["resumed"], back)
	}
	if tr, _ := back["transcript"].(string); !strings.Contains(tr, "first name") {
		t.Fatalf("transcript %q lacks B's first clause", tr)
	}
}

// A stale copy that missed a finalize must not ack the next dictation's
// seq 1 as a duplicate of the finalized one: A dictates seq 1 and 2, B
// takes over and finalizes, and A's next seq 1 opens a new dictation.
func TestStaleCopyMissingFinalizeOpensNextDictation(t *testing.T) {
	st := session.NewMemStore()
	_, a := replica(t, "na", st)
	_, b := replica(t, "nb", st)
	_, out := post(t, a.URL+"/api/stream/dictate", map[string]any{"fragment": "select salary from employees", "seq": 1})
	id := out["id"].(string)
	post(t, a.URL+"/api/stream/dictate", map[string]any{"id": id, "fragment": "where gender equals M", "seq": 2})
	if code, fin := post(t, b.URL+"/api/stream/finalize", map[string]any{"id": id}); code != http.StatusOK {
		t.Fatalf("finalize on B: %d %v", code, fin)
	}
	code, next := post(t, a.URL+"/api/stream/dictate", map[string]any{"id": id, "fragment": "select first name from employees", "seq": 1})
	if code != http.StatusOK {
		t.Fatalf("next dictation on stale A: %d %v", code, next)
	}
	if next["duplicate"] == true || next["seq"] != float64(1) {
		t.Fatalf("stale A acked the next dictation as a duplicate: %v", next)
	}
	if tr, _ := next["transcript"].(string); strings.Contains(tr, "gender") {
		t.Fatalf("next dictation continued the finalized one: %q", tr)
	}
}

// dictationsStored counts the dictation events of the session's stored
// snapshot: what a replica taking the session over would restore.
func dictationsStored(t *testing.T, st session.Store, id string) int {
	t.Helper()
	snap, found, err := st.Load(id)
	if err != nil || !found {
		t.Fatalf("load snapshot %q: found=%v err=%v", id, found, err)
	}
	n := 0
	for _, e := range snap.Events {
		if e.Kind == session.EventDictateFull || e.Kind == session.EventDictateClause {
			n++
		}
	}
	return n
}

// A stale copy must not answer /api/dictate from its own state: A
// dictates, B restores the session and dictates, and A's next dictation
// resyncs onto B's state instead of checkpointing over B's snapshot.
func TestStaleCopyResyncsOnDictate(t *testing.T) {
	st := session.NewMemStore()
	_, a := replica(t, "da", st)
	_, b := replica(t, "db", st)
	_, created := post(t, a.URL+"/api/session", map[string]any{})
	id := created["id"].(string)
	post(t, a.URL+"/api/dictate", map[string]any{"id": id, "transcript": "select salary from employees"})
	code, moved := post(t, b.URL+"/api/dictate", map[string]any{"id": id, "transcript": "select first name from employees"})
	if code != http.StatusOK || moved["dictations"] != float64(2) {
		t.Fatalf("dictate on B: %d %v", code, moved)
	}
	code, back := post(t, a.URL+"/api/dictate", map[string]any{"id": id, "transcript": "select title from titles"})
	if code != http.StatusOK {
		t.Fatalf("dictate on stale A: %d %v", code, back)
	}
	if back["dictations"] != float64(3) || back["resumed"] != true {
		t.Fatalf("stale A dropped B's dictation: dictations = %v, resumed = %v", back["dictations"], back["resumed"])
	}
	if n := dictationsStored(t, st, id); n != 3 {
		t.Fatalf("stored snapshot holds %d dictations, want 3", n)
	}
}

// The same for keyboard edits: A edits, B restores and edits, and A's next
// edit lands on top of B's.
func TestStaleCopyResyncsOnEdit(t *testing.T) {
	st := session.NewMemStore()
	_, a := replica(t, "ea", st)
	_, b := replica(t, "eb", st)
	_, created := post(t, a.URL+"/api/session", map[string]any{})
	id := created["id"].(string)
	edit := func(url, tok string) map[string]any {
		t.Helper()
		code, out := post(t, url+"/api/edit", map[string]any{"id": id, "op": "insert", "pos": 99, "token": tok})
		if code != http.StatusOK {
			t.Fatalf("edit %q: %d %v", tok, code, out)
		}
		return out
	}
	edit(a.URL, "SELECT")
	if moved := edit(b.URL, "Salary"); moved["resumed"] != true {
		t.Fatalf("edit on B did not restore: %v", moved)
	}
	back := edit(a.URL, "FROM")
	if got := fmt.Sprint(back["tokens"]); got != "[SELECT Salary FROM]" || back["resumed"] != true {
		t.Fatalf("stale A dropped B's edit: tokens %s, resumed = %v", got, back["resumed"])
	}
	snap, _, _ := st.Load(id)
	if got := strings.Join(snap.Tokens, " "); got != "SELECT Salary FROM" {
		t.Fatalf("stored snapshot tokens %q", got)
	}
}
