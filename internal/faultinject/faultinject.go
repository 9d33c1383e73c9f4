// Package faultinject is SpeakQL's deterministic fault-injection layer:
// seeded, per-stage injectors that add latency, force errors, or force
// panics at the pipeline's hook points (structure determination, literal
// determination, the structure-search cache). It exists so overload and
// failure handling — the admission gate, the panic-recovery middleware,
// the graceful-degradation ladder — can be rehearsed on demand instead of
// discovered in production.
//
// Injection is off by default and free when off: Fire is a single atomic
// pointer load returning nil, so the always-on hook points cost nothing in
// normal operation (the differential tests and benchmarks run with the
// injector disabled and must show no regression).
//
// Determinism: every decision is a pure function of (seed, stage, call
// ordinal). Two runs that issue the same sequence of Fire calls per stage
// see the same faults, which is what makes chaos tests debuggable.
//
// Spec grammar (the -faults flag / SPEAKQL_FAULTS env var on
// speakql-server and speakql-router):
//
//	spec    := clause (';' clause)*
//	clause  := 'seed=' uint | stage ':' fault (',' fault)*
//	stage   := 'structure' | 'literal' | 'validate' | 'cache' | 'stream' | 'registry' | 'network'
//	fault   := kind ['=' value] ['@' probability]
//	kind    := 'latency' | 'error' | 'panic'
//	value   := Go duration, latency only (default 1ms)
//	probability := float in (0, 1] (default 1)
//
// Example: "structure:latency=5ms@0.5,error@0.1;literal:panic@0.02;seed=7"
// sleeps 5ms on half the structure searches, fails 10% of them, and panics
// on 2% of literal determinations, all reproducibly under seed 7.
package faultinject

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"speakql/internal/obs"
)

// Stage names the hook points the pipeline consults. Unknown stages in a
// spec are rejected at parse time so a typo cannot silently disable a
// rehearsal.
const (
	StageStructure = "structure"
	StageLiteral   = "literal"
	StageCache     = "cache"
	// StageStream fires once per streamed dictation fragment, before the
	// fragment enters the correction pipeline — the hook the SSE chaos tests
	// use to rehearse flaky clause streams.
	StageStream = "stream"
	// StageRegistry fires on the tenant registry's load and evict paths —
	// the hook the tenant-churn chaos tests use to rehearse failed lazy
	// loads and evict-time faults without a corrupt disk.
	StageRegistry = "registry"
	// StageNetwork fires in the router once per proxied attempt, before the
	// request leaves for a replica — the hook the multi-replica chaos tests
	// use to rehearse flaky router↔replica links (an injected error is
	// treated as a transport failure and enters the retry path).
	StageNetwork = "network"
	// StageValidate fires once per correction whose output is about to be
	// validated (DESIGN.md §15). An injected error sheds
	// validation for that correction — the unvalidated ranking is served,
	// never a failure — which is exactly the ladder behavior the chaos
	// tests pin.
	StageValidate = "validate"
)

// stages is the closed set of valid hook points.
var stages = []string{StageStructure, StageLiteral, StageValidate, StageCache, StageStream, StageRegistry, StageNetwork}

// InjectedError is the error value forced by an error fault. Callers that
// need to distinguish rehearsed failures from organic ones can errors.As
// it; everything else treats it as an ordinary stage failure.
type InjectedError struct {
	Stage string
}

func (e *InjectedError) Error() string {
	return "faultinject: injected " + e.Stage + " error"
}

// InjectedPanic is the value thrown by a panic fault, so the recovery
// middleware (and tests) can tell a rehearsed panic from a real bug.
type InjectedPanic struct {
	Stage string
}

func (p InjectedPanic) String() string {
	return "faultinject: injected " + p.Stage + " panic"
}

// rule is one stage's fault configuration.
type rule struct {
	latencyP float64
	latency  time.Duration
	errorP   float64
	panicP   float64
}

// stageState pairs a stage's rule with its deterministic call ordinal and
// the running counts of what actually fired.
type stageState struct {
	rule rule

	calls     atomic.Int64
	latencies atomic.Int64
	errors    atomic.Int64
	panics    atomic.Int64
}

// Injector is a parsed, seeded fault plan. Safe for concurrent use; the
// decision stream per stage is serialized by an atomic ordinal.
type Injector struct {
	seed   uint64
	states map[string]*stageState
}

// active is the process-wide injector consulted by Fire; nil means
// injection is off everywhere.
var active atomic.Pointer[Injector]

// Set installs inj as the process-wide injector (nil disables injection).
func Set(inj *Injector) { active.Store(inj) }

// Enabled reports whether a process-wide injector is installed.
func Enabled() bool { return active.Load() != nil }

// Fire consults the active injector for one hook point: it sleeps any
// injected latency, panics with an InjectedPanic on an injected panic, and
// returns an *InjectedError on an injected error. With no injector
// installed it is a single atomic load.
func Fire(stage string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	return inj.Fire(stage)
}

// Fire is the instance form of the package-level Fire (tests drive
// injectors directly without installing them globally).
func (inj *Injector) Fire(stage string) error {
	st, ok := inj.states[stage]
	if !ok {
		return nil
	}
	n := uint64(st.calls.Add(1) - 1)
	// Three independent decision streams per call, so latency, error, and
	// panic probabilities do not interfere with each other.
	if st.rule.latencyP > 0 && decide(inj.seed, stage, n, 0) < st.rule.latencyP {
		st.latencies.Add(1)
		obs.Add("fault."+stage+".latency", 1)
		time.Sleep(st.rule.latency)
	}
	if st.rule.panicP > 0 && decide(inj.seed, stage, n, 1) < st.rule.panicP {
		st.panics.Add(1)
		obs.Add("fault."+stage+".panics", 1)
		panic(InjectedPanic{Stage: stage})
	}
	if st.rule.errorP > 0 && decide(inj.seed, stage, n, 2) < st.rule.errorP {
		st.errors.Add(1)
		obs.Add("fault."+stage+".errors", 1)
		return &InjectedError{Stage: stage}
	}
	return nil
}

// decide maps (seed, stage, ordinal, stream) to a uniform float in [0, 1)
// via splitmix64 — stateless, so the fault sequence is reproducible.
func decide(seed uint64, stage string, n, stream uint64) float64 {
	x := seed ^ hashString(stage) ^ (n * 0x9E3779B97F4A7C15) ^ (stream * 0xBF58476D1CE4E5B9)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// hashString is FNV-1a, inlined to keep decide allocation-free.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Counts is a snapshot of what one stage actually injected.
type Counts struct {
	Calls     int64
	Latencies int64
	Errors    int64
	Panics    int64
}

// Counts returns the per-stage injection tallies, keyed by stage name.
// Chaos tests reconcile these against the service's recovery counters.
func (inj *Injector) Counts() map[string]Counts {
	out := make(map[string]Counts, len(inj.states))
	for name, st := range inj.states {
		out[name] = Counts{
			Calls:     st.calls.Load(),
			Latencies: st.latencies.Load(),
			Errors:    st.errors.Load(),
			Panics:    st.panics.Load(),
		}
	}
	return out
}

// String renders the plan back in spec grammar (for startup logs).
func (inj *Injector) String() string {
	if inj == nil {
		return "off"
	}
	names := make([]string, 0, len(inj.states))
	for n := range inj.states {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		r := inj.states[n].rule
		var fs []string
		if r.latencyP > 0 {
			fs = append(fs, fmt.Sprintf("latency=%s@%g", r.latency, r.latencyP))
		}
		if r.errorP > 0 {
			fs = append(fs, fmt.Sprintf("error@%g", r.errorP))
		}
		if r.panicP > 0 {
			fs = append(fs, fmt.Sprintf("panic@%g", r.panicP))
		}
		if len(fs) == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(';')
		}
		b.WriteString(n)
		b.WriteByte(':')
		b.WriteString(strings.Join(fs, ","))
	}
	if b.Len() == 0 {
		return "off"
	}
	fmt.Fprintf(&b, ";seed=%d", inj.seed)
	return b.String()
}

// Parse compiles a fault spec (see the package comment for the grammar).
// An empty spec returns (nil, nil): injection stays off.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	inj := &Injector{seed: 1, states: map[string]*stageState{}}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q", rest)
			}
			inj.seed = seed
			continue
		}
		stage, faults, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faultinject: clause %q is neither seed= nor stage:faults", clause)
		}
		stage = strings.TrimSpace(stage)
		if !validStage(stage) {
			return nil, fmt.Errorf("faultinject: unknown stage %q (valid: %s)", stage, strings.Join(stages, ", "))
		}
		st := inj.states[stage]
		if st == nil {
			st = &stageState{}
			inj.states[stage] = st
		}
		for _, f := range strings.Split(faults, ",") {
			if err := parseFault(strings.TrimSpace(f), &st.rule); err != nil {
				return nil, err
			}
		}
	}
	if len(inj.states) == 0 {
		return nil, errors.New("faultinject: spec sets a seed but no stage faults")
	}
	return inj, nil
}

func validStage(s string) bool {
	for _, v := range stages {
		if s == v {
			return true
		}
	}
	return false
}

// parseFault compiles one kind['='value]['@'prob] term into r.
func parseFault(f string, r *rule) error {
	if f == "" {
		return errors.New("faultinject: empty fault term")
	}
	prob := 1.0
	if body, p, ok := strings.Cut(f, "@"); ok {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || math.IsNaN(v) || v <= 0 || v > 1 {
			return fmt.Errorf("faultinject: probability %q not in (0, 1]", p)
		}
		prob = v
		f = body
	}
	kind, val, hasVal := strings.Cut(f, "=")
	kind = strings.TrimSpace(kind)
	switch kind {
	case "latency":
		d := time.Millisecond
		if hasVal {
			var err error
			if d, err = time.ParseDuration(strings.TrimSpace(val)); err != nil || d <= 0 {
				return fmt.Errorf("faultinject: bad latency %q", val)
			}
		}
		r.latency, r.latencyP = d, prob
	case "error":
		if hasVal {
			return fmt.Errorf("faultinject: error takes no value (got %q)", val)
		}
		r.errorP = prob
	case "panic":
		if hasVal {
			return fmt.Errorf("faultinject: panic takes no value (got %q)", val)
		}
		r.panicP = prob
	default:
		return fmt.Errorf("faultinject: unknown fault kind %q (latency, error, panic)", kind)
	}
	return nil
}
