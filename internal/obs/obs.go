// Package obs is SpeakQL's lightweight observability layer: per-stage
// latency spans and monotonic counters. The correction pipeline (structure
// determination, literal determination, the HTTP handlers) records into
// the process-wide default registry; GET /api/stats serves its snapshot.
// The layer only aggregates — a span costs two clock reads and a few
// atomic adds, cheap enough to stay always-on in the hot path.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry aggregates spans and counters. Each stage's spans land in its
// own log-linear Histogram, which keeps the count, total and max alongside
// the buckets, so snapshots answer tail-latency questions (p50/p90/p99)
// per stage. The zero value is not usable; call NewRegistry.
type Registry struct {
	stages sync.Map // string → *Histogram
	counts sync.Map // string → *atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// defaultRegistry is the process-wide registry the pipeline records into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Span is an in-flight stage timing started by StartSpan.
type Span struct {
	r     *Registry
	stage string
	start time.Time
}

// StartSpan begins timing one stage; call End to record it.
func (r *Registry) StartSpan(stage string) Span {
	return Span{r: r, stage: stage, start: time.Now()}
}

// End records the span's duration. Safe on the zero Span (no-op).
func (sp Span) End() {
	if sp.r == nil {
		return
	}
	sp.r.stageFor(sp.stage).Observe(time.Since(sp.start))
}

func (r *Registry) stageFor(stage string) *Histogram {
	if h, ok := r.stages.Load(stage); ok {
		return h.(*Histogram)
	}
	h, _ := r.stages.LoadOrStore(stage, &Histogram{})
	return h.(*Histogram)
}

// Add increments a monotonic counter.
func (r *Registry) Add(name string, delta int64) {
	if delta == 0 {
		return
	}
	c, ok := r.counts.Load(name)
	if !ok {
		c, _ = r.counts.LoadOrStore(name, new(atomic.Int64))
	}
	c.(*atomic.Int64).Add(delta)
}

// StageStats is one stage's aggregate: how many spans completed, their
// cumulative latency, the worst single span, and the bucketed latency
// quantiles (conservative to one histogram sub-bucket, see Histogram).
type StageStats struct {
	Count int64
	Total time.Duration
	Max   time.Duration
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
}

// Mean returns the average span latency (0 when no spans recorded).
func (s StageStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// Snapshot is a point-in-time copy of a registry's aggregates.
type Snapshot struct {
	Stages   map[string]StageStats
	Counters map[string]int64
}

// Snapshot copies the current aggregates. Concurrent recording continues;
// the snapshot is internally consistent per stage, not across stages.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Stages: map[string]StageStats{}, Counters: map[string]int64{}}
	r.stages.Range(func(k, v any) bool {
		h := v.(*Histogram)
		snap.Stages[k.(string)] = StageStats{
			Count: h.Count(),
			Total: time.Duration(h.sum.Load()),
			Max:   h.Max(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		}
		return true
	})
	r.counts.Range(func(k, v any) bool {
		snap.Counters[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return snap
}

// CountersWithPrefix returns the snapshot's counters whose names start with
// prefix, as a fresh map (stats endpoints group related counters — e.g.
// every "literal." counter — into one response block).
func (s Snapshot) CountersWithPrefix(prefix string) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			out[name] = v
		}
	}
	return out
}

// StageNames returns the snapshot's stage names, sorted (stable rendering).
func (s Snapshot) StageNames() []string {
	names := make([]string, 0, len(s.Stages))
	for n := range s.Stages {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Reset drops all aggregates (tests and long-lived servers rolling over).
func (r *Registry) Reset() {
	r.stages.Range(func(k, _ any) bool { r.stages.Delete(k); return true })
	r.counts.Range(func(k, _ any) bool { r.counts.Delete(k); return true })
}

// Package-level shorthands recording into the default registry.

// StartSpan begins a stage timing in the default registry.
func StartSpan(stage string) Span { return defaultRegistry.StartSpan(stage) }

// Add increments a counter in the default registry.
func Add(name string, delta int64) { defaultRegistry.Add(name, delta) }
