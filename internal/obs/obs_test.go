package obs

import (
	"sync"
	"testing"
	"time"
)

func TestSpanAggregation(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("stage.a")
	time.Sleep(time.Millisecond)
	sp.End()
	r.StartSpan("stage.a").End()

	snap := r.Snapshot()
	st := snap.Stages["stage.a"]
	if st.Count != 2 {
		t.Fatalf("count = %d, want 2", st.Count)
	}
	if st.Total <= 0 || st.Max <= 0 || st.Max > st.Total {
		t.Errorf("total=%v max=%v inconsistent", st.Total, st.Max)
	}
	if st.Mean() > st.Max {
		t.Errorf("mean %v > max %v", st.Mean(), st.Max)
	}
}

func TestCounters(t *testing.T) {
	r := NewRegistry()
	r.Add("nodes", 3)
	r.Add("nodes", 4)
	r.Add("zero", 0) // no-op: must not materialize a counter
	snap := r.Snapshot()
	if snap.Counters["nodes"] != 7 {
		t.Errorf("nodes = %d, want 7", snap.Counters["nodes"])
	}
	if _, ok := snap.Counters["zero"]; ok {
		t.Error("zero-delta add created a counter")
	}
}

func TestZeroSpanEndIsNoop(t *testing.T) {
	var sp Span
	sp.End() // must not panic
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("s").End()
	r.Add("c", 1)
	r.Reset()
	snap := r.Snapshot()
	if len(snap.Stages) != 0 || len(snap.Counters) != 0 {
		t.Errorf("after reset: %+v", snap)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.StartSpan("hot").End()
				r.Add("n", 1)
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Stages["hot"].Count != 1600 || snap.Counters["n"] != 1600 {
		t.Errorf("lost updates: %+v", snap)
	}
}

func TestStageNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("b").End()
	r.StartSpan("a").End()
	names := r.Snapshot().StageNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
}

func TestCountersWithPrefix(t *testing.T) {
	r := NewRegistry()
	r.Add("literal.vote_calls", 2)
	r.Add("literal.bk_nodes", 9)
	r.Add("search.nodes_visited", 5)
	got := r.Snapshot().CountersWithPrefix("literal.")
	if len(got) != 2 || got["literal.vote_calls"] != 2 || got["literal.bk_nodes"] != 9 {
		t.Errorf("CountersWithPrefix(literal.) = %v", got)
	}
	if len(r.Snapshot().CountersWithPrefix("nosuch.")) != 0 {
		t.Error("unmatched prefix returned counters")
	}
}
