// Package loadgen is the reproducible load harness for the SpeakQL serving
// tier: a seeded, deterministic workload generator that replays the mixed
// traffic a fleet of displays produces — stateless corrections, n-best
// requests, session dictations, streaming fragments, tenant-scoped
// corrections, and deliberately malformed requests — against a live
// speakql-server, measuring per-class latency in the same HDR-style
// histograms the server uses (internal/obs.Histogram), so server-reported
// and client-observed distributions are bucketed identically.
//
// The workload is a Plan: a pre-generated op sequence derived entirely from
// (seed, mix, size). Two runs with the same parameters replay byte-identical
// request sequences — the plan's FNV-64a checksum in the report proves it —
// so before/after comparisons across server builds measure the server, not
// workload drift. Execution happens in Runner (run.go); results render as a
// machine-readable Report (report.go).
package loadgen

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Class is one traffic class in the mixed workload.
type Class string

// The workload's traffic classes.
const (
	// ClassCorrect is a stateless POST /api/correct with topk 1–3.
	ClassCorrect Class = "correct"
	// ClassNBest is POST /api/correct with topk 5 — the n-best shape an ASR
	// front end sends when it wants alternatives ranked.
	ClassNBest Class = "nbest"
	// ClassDictate is POST /api/dictate against a pool of live sessions.
	ClassDictate Class = "dictate"
	// ClassStream is POST /api/stream/dictate: one clause fragment into a
	// pool of streaming dictation sessions.
	ClassStream Class = "stream"
	// ClassTenant is a tenant-scoped POST /api/correct?tenant= against
	// tenants the runner registers during setup.
	ClassTenant Class = "tenant"
	// ClassFault is a malformed request (bad JSON, wrong types, unknown
	// fields) whose expected answer is a clean 400.
	ClassFault Class = "fault"
)

// classes lists every class in a fixed order (map iteration is random; plan
// generation must not be).
var classes = []Class{ClassCorrect, ClassNBest, ClassDictate, ClassStream, ClassTenant, ClassFault}

// Mix maps classes to integer weights. Weights are relative; a class absent
// or at 0 generates no traffic.
type Mix map[Class]int

// DefaultMix approximates interactive display traffic: correction-heavy,
// with steady dictation and streaming, a trickle of tenant-scoped load, and
// a little garbage (clients misbehave in production too).
func DefaultMix() Mix {
	return Mix{
		ClassCorrect: 40,
		ClassNBest:   10,
		ClassDictate: 20,
		ClassStream:  15,
		ClassTenant:  10,
		ClassFault:   5,
	}
}

// ParseMix parses "correct=40,nbest=10,…" into a Mix, rejecting unknown
// classes and non-positive totals.
func ParseMix(spec string) (Mix, error) {
	m := Mix{}
	total := 0
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("loadgen: bad mix entry %q (want class=weight)", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return nil, fmt.Errorf("loadgen: bad mix weight %q", val)
		}
		c := Class(strings.TrimSpace(name))
		known := false
		for _, k := range classes {
			if c == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("loadgen: unknown class %q (have %v)", name, classes)
		}
		m[c] = w
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("loadgen: mix %q has zero total weight", spec)
	}
	return m, nil
}

// Op is one planned request. Every field is filled at plan time from the
// seeded generator; execution only reads.
type Op struct {
	Class      Class
	Transcript string // transcript, fragment, or raw body (fault class)
	TopK       int    // correct/nbest/tenant
	Session    int    // dictate: index into the runner's session pool
	Stream     int    // stream: index into the runner's stream-session pool
	Tenant     int    // tenant: index into the runner's tenant pool
}

// Plan is the deterministic workload: a fixed op sequence plus the pool
// sizes its ops index into.
type Plan struct {
	Seed     int64
	Ops      []Op
	Sessions int // dictate sessions the runner must create
	Streams  int // streaming sessions the runner must create
	Tenants  int // tenants the runner must register
}

// Pool sizes: enough concurrency spread that per-session server locks don't
// serialize the whole class, small enough that setup stays sub-second.
const (
	planSessions = 8
	planStreams  = 8
	planTenants  = 4
)

// transcripts is the dictation pool, phrased against the seed Employees
// schema every speakql-server default build serves. Varied length and error
// shapes (phonetic confusions, homophones) so the correction pipeline does
// real work at every difficulty.
var transcripts = []string{
	"select salary from employees where gender equals M",
	"select first name from employees",
	"select first named from employee where celery greater than 50000",
	"select birth date from employees where gender equals M",
	"select count of everything from titles",
	"select last name from employees where higher date greater than 1990",
	"select salary from salaries where salary less than 60000",
	"select title from titles",
}

// fragments is the clause-streaming pool: each op sends one clause, so
// consecutive ops against the same stream session mimic a user dictating a
// query clause by clause.
var fragments = []string{
	"select first name from employees",
	"where salary greater than 50000",
	"and gender equals M",
	"select title from titles",
	"where higher date greater than 1985",
}

// faultBodies are the malformed payloads; each must be answered 400.
var faultBodies = []string{
	`{"transcript": 42}`,                    // wrong type
	`{"transcript": "x", "bogus_field": 1}`, // unknown field
	`{"transcript": "select`,                // truncated JSON
	`not json at all`,                       // not JSON
	`{"transcript": "x", "topk": "three"}`,  // wrong topk type
	`["transcript", "x"]`,                   // wrong JSON kind
}

// TenantTranscript returns the transcript tenant i's ops dictate — phrased
// against the schema RegisterTenants installs for it.
func TenantTranscript(i int) string {
	return fmt.Sprintf("select cargo total from shipments%d where port name equals rotterdam", i)
}

// NewPlan generates the op sequence for the given seed and mix. size is the
// number of ops; the runner cycles through them modulo size, so a run longer
// than the plan replays it (the workload stays deterministic either way).
func NewPlan(seed int64, mix Mix, size int) (*Plan, error) {
	if size < 1 {
		return nil, fmt.Errorf("loadgen: plan size %d < 1", size)
	}
	if len(mix) == 0 {
		mix = DefaultMix()
	}
	// Build the weighted class lottery in fixed class order.
	var lottery []Class
	for _, c := range classes {
		for i := 0; i < mix[c]; i++ {
			lottery = append(lottery, c)
		}
	}
	if len(lottery) == 0 {
		return nil, fmt.Errorf("loadgen: mix has zero total weight")
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{Seed: seed, Ops: make([]Op, size), Sessions: planSessions, Streams: planStreams, Tenants: planTenants}
	for i := range p.Ops {
		op := Op{Class: lottery[rng.Intn(len(lottery))]}
		switch op.Class {
		case ClassCorrect:
			op.Transcript = transcripts[rng.Intn(len(transcripts))]
			op.TopK = 1 + rng.Intn(3)
		case ClassNBest:
			op.Transcript = transcripts[rng.Intn(len(transcripts))]
			op.TopK = 5
		case ClassDictate:
			op.Transcript = transcripts[rng.Intn(len(transcripts))]
			op.Session = rng.Intn(planSessions)
		case ClassStream:
			op.Transcript = fragments[rng.Intn(len(fragments))]
			op.Stream = rng.Intn(planStreams)
		case ClassTenant:
			op.Tenant = rng.Intn(planTenants)
			op.Transcript = TenantTranscript(op.Tenant)
			op.TopK = 1 + rng.Intn(2)
		case ClassFault:
			op.Transcript = faultBodies[rng.Intn(len(faultBodies))]
		}
		p.Ops[i] = op
	}
	return p, nil
}

// Checksum is the FNV-64a digest of the op sequence — the report's proof
// that two runs replayed the same workload.
func (p *Plan) Checksum() string {
	h := fnv.New64a()
	for i := range p.Ops {
		op := &p.Ops[i]
		fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d\x00%d\x00%d\n",
			op.Class, op.Transcript, op.TopK, op.Session, op.Stream, op.Tenant)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ClassCounts tallies ops per class (for the report's workload block).
func (p *Plan) ClassCounts() map[Class]int {
	m := map[Class]int{}
	for i := range p.Ops {
		m[p.Ops[i].Class]++
	}
	return m
}

// String renders a mix canonically (fixed class order) for logs.
func (m Mix) String() string {
	var parts []string
	for _, c := range classes {
		if w := m[c]; w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c, w))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}
