package session

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"speakql/internal/obs"
	"speakql/internal/stream"
)

// stageSpans totals the spans every pipeline stage has recorded: a call
// that leaves it unchanged ran no correction.
func stageSpans() int64 {
	var n int64
	for _, st := range obs.Default().Snapshot().Stages {
		n += st.Count
	}
	return n
}

// Snapshot → encode → decode → Restore must reproduce the session exactly:
// display, effort log, and — mid-stream — the dictation's state, with the
// resumed stream's subsequent fragments bit-identical to a session that
// never moved.
func TestSnapshotRestoreMidStreamBitIdentical(t *testing.T) {
	e := engine(t)
	ctx := context.Background()
	fragments := []string{
		"select salary from employees",
		"where gender equals M",
	}
	tail := "and salary greater than 50000"

	// Control: one session dictates all fragments and finalizes, never moving.
	control := New(e)
	for _, f := range fragments {
		if _, err := control.StreamFragment(ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := control.StreamFragment(ctx, tail); err != nil {
		t.Fatal(err)
	}
	controlFin, err := control.FinalizeStream(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Handoff: dictate the prefix, snapshot, move through the codec, restore,
	// then dictate the tail on the restored session.
	orig := New(e)
	for _, f := range fragments {
		if _, err := orig.StreamFragment(ctx, f); err != nil {
			t.Fatal(err)
		}
	}
	snap := orig.Snapshot("s-handoff", "default")
	raw, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.ID != "s-handoff" || decoded.Tenant != "default" {
		t.Fatalf("snapshot identity lost: %+v", decoded)
	}
	if decoded.Stream == nil || decoded.Stream.Phase != phaseStreaming || decoded.Stream.Seq != 2 {
		t.Fatalf("stream checkpoint lost: %+v", decoded.Stream)
	}
	spans := stageSpans()
	restored := Restore(e, stream.Config{}, decoded)
	if got := stageSpans(); got != spans {
		t.Fatalf("restore recorded %d pipeline spans, want none", got-spans)
	}
	if got, want := restored.SQL(), orig.SQL(); got != want {
		t.Fatalf("restored display %q != original %q", got, want)
	}
	if restored.Effort() != orig.Effort() || restored.Dictations() != orig.Dictations() {
		t.Fatalf("effort log diverged: restored %d/%d, original %d/%d",
			restored.Effort(), restored.Dictations(), orig.Effort(), orig.Dictations())
	}
	if !reflect.DeepEqual(restored.Events(), orig.Events()) {
		t.Fatalf("event log diverged:\n%v\n%v", restored.Events(), orig.Events())
	}
	// The resumed stream continues exactly where the control is.
	resumedOut, err := restored.StreamFragment(ctx, tail)
	if err != nil {
		t.Fatal(err)
	}
	if resumedOut.Seq != 3 {
		t.Fatalf("resumed Seq = %d, want 3 (numbering must survive handoff)", resumedOut.Seq)
	}
	resumedFin, err := restored.FinalizeStream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock latency fields are the only legitimate difference.
	a, b := resumedFin.Output, controlFin.Output
	a.StructureLatency, b.StructureLatency = 0, 0
	a.LiteralLatency, b.LiteralLatency = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("resumed finalize diverged from uninterrupted control:\n%+v\n%+v", a, b)
	}
	if resumedFin.RawTranscript != controlFin.RawTranscript {
		t.Fatalf("transcript diverged: %q != %q", resumedFin.RawTranscript, controlFin.RawTranscript)
	}
}

// A finalized snapshot restores finalized: the display survives, a second
// finalize is rejected with ErrFinalized and the next fragment opens a new
// dictation (same as on the original replica), and no correction runs
// during restore.
func TestSnapshotRestoreFinalized(t *testing.T) {
	e := engine(t)
	ctx := context.Background()
	s := New(e)
	if _, err := s.StreamFragment(ctx, "select salary from employees"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.FinalizeStream(ctx); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot("s-fin", "")
	spans := stageSpans()
	restored := Restore(e, stream.Config{}, snap)
	if got := stageSpans(); got != spans {
		t.Fatalf("restore recorded %d pipeline spans, want none", got-spans)
	}
	if got, want := restored.SQL(), s.SQL(); got != want {
		t.Fatalf("restored display %q != %q", got, want)
	}
	if n, fin := restored.StreamPosition(); n != 1 || !fin {
		t.Fatalf("restored stream position = %d, finalized %v; want 1, true", n, fin)
	}
	if _, err := restored.FinalizeStream(ctx); !errors.Is(err, ErrFinalized) {
		t.Fatalf("second finalize after restore: err = %v, want ErrFinalized", err)
	}
	out, err := restored.StreamFragment(ctx, "where gender equals M")
	if err != nil || out.Seq != 1 {
		// StreamFragment starts a fresh dictation after finalize by design —
		// exactly like the original replica would.
		t.Fatalf("post-finalize fragment should start a new dictation at seq 1, got seq %d, err %v", out.Seq, err)
	}
	if _, err := restored.FinalizeStream(ctx); err != nil {
		t.Fatalf("new dictation should finalize cleanly, got %v", err)
	}
}

// A snapshot without an open stream restores display-only.
func TestSnapshotRestoreDisplayOnly(t *testing.T) {
	e := engine(t)
	s := New(e)
	s.DictateFull("select salary from employees where gender equals M")
	s.InsertToken(0, "EXPLAIN")
	snap := s.Snapshot("s-disp", "")
	if snap.Stream != nil {
		t.Fatalf("no dictation open, but snapshot has stream: %+v", snap.Stream)
	}
	restored := Restore(e, stream.Config{}, snap)
	if n, fin := restored.StreamPosition(); n != 0 || fin {
		t.Fatalf("display-only restore opened a dictation: %d fragments, finalized %v", n, fin)
	}
	if restored.SQL() != s.SQL() || restored.Effort() != s.Effort() {
		t.Fatalf("display-only restore diverged: %q/%d vs %q/%d",
			restored.SQL(), restored.Effort(), s.SQL(), s.Effort())
	}
}

// Decode rejects garbage, versions from the future, and anonymous
// snapshots.
func TestDecodeSnapshotRejects(t *testing.T) {
	cases := []string{
		`not json`,
		`{"v":99,"id":"s1"}`,
		`{"v":1}`,
	}
	for _, raw := range cases {
		if _, err := DecodeSnapshot([]byte(raw)); err == nil {
			t.Errorf("DecodeSnapshot(%q) accepted", raw)
		}
	}
}

// Decode accepts exactly the stream phases Snapshot writes: an unknown
// phase, or an idle dictation with fragments, would restore as some other
// dictation than the one recorded. "closed" is unknown: no session ever
// wrote it.
func TestDecodeSnapshotStreamPhases(t *testing.T) {
	for _, c := range []struct {
		stream string
		ok     bool
	}{
		{``, true}, // no open dictation
		{`,"stream":{"phase":"idle"}`, true},
		{`,"stream":{"phase":"streaming","fragments":["select salary"],"seq":1}`, true},
		{`,"stream":{"phase":"finalized","fragments":["select salary"],"seq":1}`, true},
		{`,"stream":{"phase":"finalized"}`, true},
		{`,"stream":{"phase":"closed","fragments":["select salary"],"seq":1}`, false},
		{`,"stream":{"phase":"idle","fragments":["select salary"]}`, false},
		{`,"stream":{"phase":"paused","fragments":["select salary"],"seq":1}`, false},
		{`,"stream":{"phase":"Streaming","fragments":["select salary"],"seq":1}`, false},
		{`,"stream":{"fragments":["select salary"]}`, false},
		{`,"stream":{}`, false},
	} {
		raw := `{"v":1,"id":"s1"` + c.stream + `}`
		_, err := DecodeSnapshot([]byte(raw))
		if (err == nil) != c.ok {
			t.Errorf("DecodeSnapshot(%s): err = %v, want ok=%v", raw, err, c.ok)
		}
	}
}

// storeContract drives the Store interface invariants both implementations
// must share.
func storeContract(t *testing.T, st Store) {
	t.Helper()
	if _, ok, err := st.Load("absent"); ok || err != nil {
		t.Fatalf("Load(absent) = ok=%v err=%v", ok, err)
	}
	if err := st.Delete("absent"); err != nil {
		t.Fatalf("Delete(absent) = %v (must be a no-op)", err)
	}
	snap := &Snapshot{ID: "r1-s1", Tenant: "default", Tokens: []string{"SELECT", "Salary"},
		Events: []Event{{Kind: EventDictateFull, Detail: "x", Touches: 2}},
		Stream: &StreamSnapshot{Phase: "streaming", Fragments: []string{"select salary"}, Seq: 1}}
	if err := st.Save(snap); err != nil {
		t.Fatal(err)
	}
	// Overwrite wins.
	snap2 := &Snapshot{ID: "r1-s1", Tokens: []string{"SELECT", "Title"}}
	if err := st.Save(snap2); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Load("r1-s1")
	if err != nil || !ok {
		t.Fatalf("Load = ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got.Tokens, snap2.Tokens) {
		t.Fatalf("Load returned stale snapshot: %+v", got)
	}
	ids, err := st.List()
	if err != nil || len(ids) != 1 || ids[0] != "r1-s1" {
		t.Fatalf("List = %v, %v", ids, err)
	}
	if err := st.Delete("r1-s1"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := st.Load("r1-s1"); ok {
		t.Fatal("snapshot survived Delete")
	}
	// Hostile ids must not escape or collide trivially.
	for i, id := range []string{"../../etc/passwd", "a/b\\c", "..", ""} {
		s := &Snapshot{ID: id, Tokens: []string{fmt.Sprint(i)}}
		if id == "" {
			continue // empty ids are rejected at decode; stores never see them
		}
		if err := st.Save(s); err != nil {
			t.Fatalf("Save(%q) = %v", id, err)
		}
		got, ok, err := st.Load(id)
		if err != nil || !ok || got.Tokens[0] != fmt.Sprint(i) {
			t.Fatalf("round-trip of hostile id %q failed: ok=%v err=%v", id, ok, err)
		}
		if err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	// Concurrent saves/loads/deletes must be race-free (run with -race).
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("c-%d", w)
			for i := 0; i < 50; i++ {
				_ = st.Save(&Snapshot{ID: id, Tokens: []string{fmt.Sprint(i)}})
				_, _, _ = st.Load(id)
			}
			_ = st.Delete(id)
		}(w)
	}
	wg.Wait()
}

func TestMemStoreContract(t *testing.T) { storeContract(t, NewMemStore()) }

func TestDirStoreContract(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, st)
}

// DirStore files must stay inside the store directory even for traversal-
// shaped ids.
func TestDirStoreEscaping(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := "../escape"
	if err := st.Save(&Snapshot{ID: id}); err != nil {
		t.Fatal(err)
	}
	ids, err := st.List()
	if err != nil || len(ids) != 1 || ids[0] != id {
		t.Fatalf("List = %v, %v (escaped id must round-trip)", ids, err)
	}
	p := st.path(id)
	if !strings.HasPrefix(p, dir) || strings.Contains(p[len(dir):], "..") {
		t.Fatalf("hostile id escaped the store dir: %q", p)
	}
}
