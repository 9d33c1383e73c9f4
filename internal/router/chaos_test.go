package router

// chaos_test.go is the multi-replica serving-tier chaos suite: three real
// httpapi replicas on real TCP listeners behind a real Router, sharing one
// session.MemStore (the stand-in for an external KV service). Replicas are
// killed SIGKILL-style mid-stream (listener + server closed with no drain,
// so in-flight connections die with resets) and restarted on the same
// address with a fresh process image (new httpapi.Server, new node id,
// empty session map — only the store survives, exactly like a real restart).
//
// The invariants under test:
//
//   - Every response the router hands a client is well-formed JSON with a
//     decidable verdict: success, 503 shed, typed stream.lost, or typed
//     router.unavailable. Never a torn body, never a silent hang.
//   - A mid-stream session whose replica dies resumes on another replica
//     bit-identically: the finalized SQL equals an uninterrupted control's.
//   - With checkpointing disabled, the same death yields the typed
//     stream.lost verdict — losses are always accounted, never silent:
//     under seeded mixed traffic, abandoned (non-shed) sessions equal the
//     fleet's stream.lost counter exactly.
//   - Teardown leaks nothing: goroutines return to baseline.
//
// Traffic is seeded (splitmix64) so failures replay deterministically, and
// every fragment carries its seq as an idempotency key so client retries
// through the router are exactly-once.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/grammar"
	"speakql/internal/httpapi"
	"speakql/internal/literal"
	"speakql/internal/obs"
	"speakql/internal/session"
	"speakql/internal/sqlengine"
)

var (
	chaosOnce sync.Once
	chaosEng  *core.Engine
	chaosDB   *sqlengine.Database
)

// chaosEngine lazily builds the one read-only engine every in-process
// replica shares (the engine is immutable; real replicas would each build
// an identical one).
func chaosEngine(t *testing.T) (*core.Engine, *sqlengine.Database) {
	t.Helper()
	chaosOnce.Do(func() {
		chaosDB = dataset.NewEmployeesDB(dataset.EmployeesConfig{Employees: 100, Departments: 5, Seed: 1})
		cat := literal.NewCatalog(chaosDB.TableNames(), chaosDB.AttributeNames(), chaosDB.StringValues(0))
		eng, err := core.NewEngine(core.Config{Grammar: grammar.TestScale(), Catalog: cat})
		if err != nil {
			panic(err)
		}
		chaosEng = eng
	})
	return chaosEng, chaosDB
}

// replicaProc is one replica "process": an httpapi.Server on a real
// listener that can be killed without drain and restarted on the same
// address with fresh memory.
type replicaProc struct {
	name  string
	store session.Store

	mu   sync.Mutex
	addr string
	gen  int
	api  *httpapi.Server
	hs   *http.Server
	ln   net.Listener
}

// noCheckpoints is a replica's view of the fleet store with checkpointing
// off: restores still read the store, but no snapshot is ever saved.
type noCheckpoints struct{ session.Store }

func (noCheckpoints) Save(*session.Snapshot) error { return nil }

func newReplicaProc(t *testing.T, name string, store session.Store, checkpointing bool) *replicaProc {
	if !checkpointing {
		store = noCheckpoints{store}
	}
	p := &replicaProc{name: name, store: store, addr: "127.0.0.1:0"}
	p.start(t)
	t.Cleanup(p.kill)
	return p
}

// start boots a fresh replica image on p.addr. After a kill the same
// address is re-bound (retrying briefly for the kernel to release it), so
// the router's static member URL points at the restarted replica.
func (p *replicaProc) start(t *testing.T) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen++
	eng, db := chaosEngine(t)
	api := httpapi.New(eng, db)
	// Node ids are per-incarnation: a restarted replica must never mint a
	// session id its predecessor already handed out.
	api.SetNodeID(fmt.Sprintf("%s-g%d", p.name, p.gen))
	api.SetSessionStore(p.store)
	var ln net.Listener
	var err error
	deadline := time.Now().Add(2 * time.Second)
	for {
		ln, err = net.Listen("tcp", p.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", p.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	p.addr = ln.Addr().String()
	hs := &http.Server{Handler: api.Handler()}
	go hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on kill
	p.api, p.hs, p.ln = api, hs, ln
}

// kill is the SIGKILL analog: listener and connections closed immediately,
// no drain, no checkpoint flush. In-flight requests die with resets; the
// replica's memory (sessions included) is gone. Idempotent.
func (p *replicaProc) kill() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hs == nil {
		return
	}
	p.hs.Close()
	p.api.Close()
	p.hs, p.ln = nil, nil
}

func (p *replicaProc) url() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return "http://" + p.addr
}

// chaosFleet boots three replicas and a fast-reacting router over them.
func chaosFleet(t *testing.T, store session.Store, checkpointing bool) (map[string]*replicaProc, *Router, string) {
	t.Helper()
	procs := map[string]*replicaProc{}
	var reps []Replica
	for _, name := range []string{"r1", "r2", "r3"} {
		p := newReplicaProc(t, name, store, checkpointing)
		procs[name] = p
		reps = append(reps, Replica{Name: name, URL: p.url()})
	}
	rt, err := New(Config{
		Replicas:       reps,
		HealthInterval: 25 * time.Millisecond,
		EjectAfter:     2,
		RetryBudget:    2,
		Timeout:        10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: rt.Handler()}
	go hs.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { hs.Close(); rt.Close() })
	return procs, rt, "http://" + ln.Addr().String()
}

// chaosClient is the suite's HTTP client; a dedicated one so teardown can
// drop its idle connections for the goroutine-baseline check.
var chaosClient = &http.Client{Timeout: 15 * time.Second}

// verdict is one decoded response: every reply must land in exactly one of
// these shapes or the suite fails (the well-formed-JSON invariant).
type verdict struct {
	status int
	body   map[string]any
}

func (v verdict) ok() bool   { return v.status == http.StatusOK }
func (v verdict) shed() bool { return v.status == http.StatusServiceUnavailable }
func (v verdict) lost() bool {
	return v.status == http.StatusNotFound && v.body["code"] == "stream.lost"
}
func (v verdict) routerDown() bool {
	return v.status == http.StatusBadGateway && v.body["code"] == "router.unavailable"
}

// send posts one JSON request and decodes the reply; any transport error or
// undecodable body is retried as "router momentarily down" up to the
// deadline (the router itself never dies in these tests, but its listener
// races the very first request).
func send(t *testing.T, base, path string, body map[string]any) verdict {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := chaosClient.Post(base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			if time.Now().After(deadline) {
				t.Fatalf("POST %s never completed: %v", path, err)
			}
			time.Sleep(20 * time.Millisecond)
			continue
		}
		var out map[string]any
		derr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if derr != nil {
			t.Fatalf("POST %s: malformed JSON body (status %d): %v", path, resp.StatusCode, derr)
		}
		return verdict{status: resp.StatusCode, body: out}
	}
}

// dictate sends one fragment with its seq idempotency key, retrying typed
// router exhaustion (the ejection window) until the fleet answers.
func dictate(t *testing.T, base, id, fragment string, seq int) verdict {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		v := send(t, base, "/api/stream/dictate", map[string]any{"id": id, "fragment": fragment, "seq": seq})
		if v.routerDown() {
			if time.Now().After(deadline) {
				t.Fatalf("dictate %s/%d: fleet never recovered: %v", id, seq, v.body)
			}
			time.Sleep(20 * time.Millisecond)
			continue
		}
		return v
	}
}

// finalize closes a dictation, treating a 409 on retry as success (the
// first attempt's response was lost after the finalize applied).
func finalize(t *testing.T, base, id string) (verdict, bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		v := send(t, base, "/api/stream/finalize", map[string]any{"id": id})
		switch {
		case v.routerDown():
			if time.Now().After(deadline) {
				t.Fatalf("finalize %s: fleet never recovered: %v", id, v.body)
			}
			time.Sleep(20 * time.Millisecond)
		case v.status == http.StatusConflict:
			return v, true // already finalized by a lost earlier attempt
		default:
			return v, v.ok()
		}
	}
}

// TestChaosKillRestartResumesBitIdentical is the scripted failover: a
// session dictates through the router, its owning replica is killed
// mid-stream, and the resumed session's finalized SQL must equal an
// uninterrupted control's exactly.
func TestChaosKillRestartResumesBitIdentical(t *testing.T) {
	store := session.NewMemStore()
	procs, _, base := chaosFleet(t, store, true)
	fragments := []string{
		"select salary from employees",
		"where gender equals M",
		"and salary greater than 50000",
	}

	// Control: uninterrupted through the same router.
	ctl := dictate(t, base, "", fragments[0], 1)
	if !ctl.ok() {
		t.Fatalf("control create: %+v", ctl)
	}
	ctlID := ctl.body["id"].(string)
	for i, f := range fragments[1:] {
		if v := dictate(t, base, ctlID, f, i+2); !v.ok() {
			t.Fatalf("control dictate %d: %+v", i+2, v)
		}
	}
	ctlFin, ok := finalize(t, base, ctlID)
	if !ok {
		t.Fatalf("control finalize: %+v", ctlFin)
	}
	controlSQL := ctlFin.body["sql"].(string)

	// Victim session: two fragments in, kill the replica that owns it.
	v := dictate(t, base, "", fragments[0], 1)
	if !v.ok() {
		t.Fatalf("create: %+v", v)
	}
	id := v.body["id"].(string)
	if v = dictate(t, base, id, fragments[1], 2); !v.ok() {
		t.Fatalf("dictate 2: %+v", v)
	}
	owner := ownerOf(t, base, id)
	procs[owner].kill()

	// The tail lands on a surviving replica and resumes from the snapshot.
	v = dictate(t, base, id, fragments[2], 3)
	if !v.ok() {
		t.Fatalf("post-kill dictate: %+v", v)
	}
	if v.body["seq"].(float64) != 3 {
		t.Fatalf("resumed stream lost fragments: %+v", v.body)
	}
	fin, ok := finalize(t, base, id)
	if !ok {
		t.Fatalf("post-kill finalize: %+v", fin)
	}
	if got := fin.body["sql"].(string); got != controlSQL {
		t.Fatalf("resumed session diverged from control:\n%q\n%q", got, controlSQL)
	}

	// Restart the victim; the fleet heals and serves fresh sessions from it
	// once re-admitted.
	procs[owner].start(t)
	nv := dictate(t, base, "", fragments[0], 1)
	if !nv.ok() {
		t.Fatalf("post-restart create: %+v", nv)
	}
}

// ownerOf asks the fleet which replica answered for id (the
// X-SpeakQL-Replica header the router stamps).
func ownerOf(t *testing.T, base, id string) string {
	t.Helper()
	// The dictate path stamps the X-SpeakQL-Replica header; a duplicate-ack
	// dictate (seq far behind the stream) is a side-effect-free probe.
	resp, err := chaosClient.Post(base+"/api/stream/dictate", "application/json",
		bytes.NewReader(mustJSON(map[string]any{"id": id, "fragment": "probe", "seq": 1})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	owner := resp.Header.Get("X-SpeakQL-Replica")
	if owner == "" {
		t.Fatal("no replica header on probe")
	}
	return owner
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

// TestChaosLostIsTypedWithoutCheckpoints forces the stream.lost path: with
// checkpointing off fleet-wide, a killed replica's sessions are
// unrecoverable and every subsequent request must get the typed verdict.
func TestChaosLostIsTypedWithoutCheckpoints(t *testing.T) {
	store := session.NewMemStore()
	procs, _, base := chaosFleet(t, store, false)
	v := dictate(t, base, "", "select salary from employees", 1)
	if !v.ok() {
		t.Fatalf("create: %+v", v)
	}
	id := v.body["id"].(string)
	owner := ownerOf(t, base, id)
	procs[owner].kill()
	v = dictate(t, base, id, "where gender equals M", 2)
	if !v.lost() {
		t.Fatalf("unrecoverable session answered %d %v, want typed stream.lost", v.status, v.body)
	}
}

// TestChaosMixedTrafficAccounting drives seeded mixed traffic through a
// kill and a restart and reconciles the books: every response well-formed,
// every abandoned session accounted by exactly one stream.lost verdict, no
// goroutines leaked.
func TestChaosMixedTrafficAccounting(t *testing.T) {
	baseline := runtime.NumGoroutine()
	before := obs.Default().Snapshot().Counters["stream.lost"]

	store := session.NewMemStore()
	procs, _, base := chaosFleet(t, store, true)
	const (
		workers           = 4
		sessionsPerWorker = 6
		seed              = uint64(42)
	)
	pool := []string{
		"select salary from employees",
		"select name from employees where salary greater than 50000",
		"select salary from employees where gender equals M",
	}
	tails := []string{
		"where gender equals F",
		"and salary less than 90000",
		"where department equals Sales",
	}

	var completed, lost, shed atomic.Int64
	var phase atomic.Int64 // workers bump this; the chaos schedule reads it
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := seed + uint64(w)*0x9E3779B97F4A7C15
			for sIdx := 0; sIdx < sessionsPerWorker; sIdx++ {
				phase.Add(1)
				rng = mix(rng)
				v := dictate(t, base, "", pool[rng%uint64(len(pool))], 1)
				if v.shed() {
					shed.Add(1)
					continue
				}
				if !v.ok() {
					t.Errorf("create verdict: %+v", v)
					return
				}
				id := v.body["id"].(string)
				rng = mix(rng)
				nFrags := 1 + int(rng%2)
				dead := false
				for f := 0; f < nFrags; f++ {
					rng = mix(rng)
					fv := dictate(t, base, id, tails[rng%uint64(len(tails))], f+2)
					if fv.lost() {
						lost.Add(1)
						dead = true
						break
					}
					if fv.shed() {
						shed.Add(1)
						dead = true
						break
					}
					if !fv.ok() {
						t.Errorf("dictate verdict: %+v", fv)
						return
					}
				}
				if dead {
					continue
				}
				fv, ok := finalize(t, base, id)
				switch {
				case ok:
					if sql, k := fv.body["sql"].(string); fv.status == http.StatusOK && (!k || sql == "") {
						t.Errorf("finalize succeeded without SQL: %+v", fv.body)
						return
					}
					completed.Add(1)
				case fv.lost():
					lost.Add(1)
				case fv.shed():
					shed.Add(1)
				default:
					t.Errorf("finalize verdict: %+v", fv)
					return
				}
			}
		}(w)
	}

	// Chaos schedule: kill r2 a third of the way in, restart it at two
	// thirds, paced by the workers' own progress so the kill always lands
	// mid-traffic.
	total := int64(workers * sessionsPerWorker)
	waitFor(t, 30*time.Second, func() bool { return phase.Load() >= total/3 })
	procs["r2"].kill()
	waitFor(t, 30*time.Second, func() bool { return phase.Load() >= 2*total/3 })
	procs["r2"].start(t)
	wg.Wait()
	if t.Failed() {
		return
	}

	// The books must balance: every session either completed, was shed, or
	// is covered by exactly one typed stream.lost verdict — and the fleet's
	// counter agrees with the client's count.
	if completed.Load()+lost.Load()+shed.Load() != total {
		t.Fatalf("sessions unaccounted: completed=%d lost=%d shed=%d of %d",
			completed.Load(), lost.Load(), shed.Load(), total)
	}
	lostCounter := obs.Default().Snapshot().Counters["stream.lost"] - before
	if lostCounter != lost.Load() {
		t.Fatalf("lost accounting diverged: clients saw %d, fleet counted %d", lost.Load(), lostCounter)
	}

	// Teardown everything and verify the goroutine baseline.
	for _, p := range procs {
		p.kill()
	}
	chaosClient.CloseIdleConnections()
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+10
	})
}

// mix is splitmix64 — the suite's seeded traffic source.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
