package main

// load.go drives a served program: an untimed warm-up, a paced open loop
// timed from each op's due time, and a saturated closed loop over ops the
// run has not used yet. Every answer is checked as it arrives.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"speakql/internal/core"
)

// phase collects one phase's samples and outcomes.
type phase struct {
	mu        sync.Mutex
	start     time.Time
	lat       []sample // every request, from due time until its response was read
	fin       []sample // stream finalize requests
	queueWait []float64
	late      []float64
	ok        int // ok responses
	attempted int
	failed    int
	reasons   map[string]int
}

// sample is one latency with the time its op was due, relative to the
// phase start (to split the phase into halves).
type sample struct {
	ms  float64
	due time.Duration
}

func newPhase() *phase { return &phase{reasons: map[string]int{}} }

// answer is the checked top-1 of one op.
type answer struct {
	ok   bool
	top1 string // top-1 SQL of a correction or a finalized dictation
	// The request saw a catalog with between lo and hi of the workload's
	// PATCHes applied: lo had completed when it was sent, hi had been sent
	// when its response was read.
	lo, hi int
}

// runner executes a workload's ops against one served program.
type runner struct {
	c        *client
	base     string
	w        *workload
	sessions chan string     // free stream sessions
	done     []chan struct{} // closed when timed op i completed
	answers  []answer        // written once, by the worker that ran op i
	warm     []answer        // the warm-up ops' answers
	// PATCHes sent and completed so far; PATCHes run one at a time, in op
	// order (each depends on the one before).
	patchesSent, patchesDone atomic.Int64
}

func newRunner(c *client, base string, w *workload) *runner {
	r := &runner{c: c, base: base, w: w, done: make([]chan struct{}, len(w.ops)), answers: make([]answer, len(w.ops))}
	for i := range r.done {
		r.done[i] = make(chan struct{})
	}
	return r
}

// correctResp is the part of a /api/correct response the checks read.
type correctResp struct {
	Candidates []struct {
		SQL string `json:"sql"`
	} `json:"candidates"`
	Degradation string `json:"degradation"`
}

// streamResp is the part of a stream dictate/finalize response the checks
// read.
type streamResp struct {
	SQL         string `json:"sql"`
	Degradation string `json:"degradation"`
}

// checkStatus classifies a transport error or non-2xx status.
func checkStatus(code int, err error) string {
	switch {
	case err != nil:
		return "transport"
	case code == http.StatusServiceUnavailable:
		return "shed_503"
	case code < 200 || code > 299:
		return fmt.Sprintf("status_%d", code)
	}
	return ""
}

// checkCorrect checks a /api/correct answer and returns its top-1 SQL or
// the failure reason.
func checkCorrect(o *op, code int, body []byte, err error) (string, string) {
	if why := checkStatus(code, err); why != "" {
		return "", why
	}
	var resp correctResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", "bad_json"
	}
	if resp.Degradation != core.DegradationFull {
		return "", "degraded_" + resp.Degradation
	}
	if len(resp.Candidates) == 0 {
		return "", "no_candidates"
	}
	top1 := resp.Candidates[0].SQL
	if o.added != "" && !strings.Contains(strings.ToLower(top1), strings.ToLower("'"+o.added+"'")) {
		return top1, "added_value_unbound"
	}
	return top1, ""
}

// checkStream checks a stream dictate/finalize answer.
func checkStream(code int, body []byte, err error) (string, string) {
	if why := checkStatus(code, err); why != "" {
		return "", why
	}
	var resp streamResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", "bad_json"
	}
	if resp.Degradation != core.DegradationFull {
		return "", "degraded_" + resp.Degradation
	}
	if resp.SQL == "" {
		return "", "no_candidates"
	}
	return resp.SQL, ""
}

// streamBody encodes a stream dictate or finalize body.
func streamBody(id, fragment string, finalize bool) []byte {
	var b []byte
	if finalize {
		b, _ = json.Marshal(struct {
			ID string `json:"id"`
		}{id}) // strings always marshal
	} else {
		b, _ = json.Marshal(struct {
			ID       string `json:"id"`
			Fragment string `json:"fragment"`
		}{id, fragment}) // strings always marshal
	}
	return b
}

// progress is one op's execution state across its requests.
type progress struct {
	sid    string // the dictation's pooled session
	step   int    // requests sent so far
	why    string // first failure, "" while ok
	top1   string
	lo, hi int // catalog versions, see answer
	lats   []sample
	fins   []sample
	ok     int // ok responses
}

// request sends op o's next request, due at due, and reports whether the op
// is complete. A dictation sends its clauses one request at a time, then
// its finalize, on a session it holds from the pool throughout.
func (r *runner) request(ctx context.Context, o *op, pr *progress, due time.Time, off time.Duration) bool {
	read := func(ok bool) sample {
		now := time.Now()
		if ok {
			pr.ok++
		}
		return sample{ms: float64(now.Sub(due)) / 1e6, due: off}
	}
	pr.step++
	switch o.kind {
	case kindCorrect:
		pr.lo = int(r.patchesDone.Load())
		code, body, err := r.c.do(ctx, http.MethodPost, r.base+o.path, o.body)
		pr.hi = int(r.patchesSent.Load())
		pr.top1, pr.why = checkCorrect(o, code, body, err)
		pr.lats = append(pr.lats, read(pr.why == ""))
		return true
	case kindPatch:
		r.patchesSent.Add(1)
		code, _, err := r.c.do(ctx, http.MethodPatch, r.base+o.path, o.body)
		r.patchesDone.Add(1)
		pr.why = checkStatus(code, err)
		pr.lats = append(pr.lats, read(pr.why == ""))
		return true
	}
	if pr.sid == "" {
		select {
		case pr.sid = <-r.sessions:
		case <-ctx.Done():
			pr.why = "cancelled"
			return true
		}
	}
	if n := pr.step - 1; n < len(o.clauses) && pr.why == "" {
		code, body, err := r.c.do(ctx, http.MethodPost, r.base+"/api/stream/dictate", streamBody(pr.sid, o.clauses[n], false))
		_, pr.why = checkStream(code, body, err)
		pr.lats = append(pr.lats, read(pr.why == ""))
		return false
	}
	// Finalize even after a failed fragment, so the session's next user
	// starts a new dictation.
	code, body, err := r.c.do(ctx, http.MethodPost, r.base+"/api/stream/finalize", streamBody(pr.sid, "", true))
	top1, why := checkStream(code, body, err)
	if pr.why == "" {
		pr.top1, pr.why = top1, why
	}
	s := read(why == "")
	pr.lats, pr.fins = append(pr.lats, s), append(pr.fins, s)
	r.sessions <- pr.sid
	return true
}

// record adds a completed op to ph (nil records nothing) and returns its
// answer.
func (r *runner) record(pr *progress, ph *phase) answer {
	if ph != nil {
		ph.mu.Lock()
		ph.attempted++
		ph.lat = append(ph.lat, pr.lats...)
		ph.fin = append(ph.fin, pr.fins...)
		ph.ok += pr.ok
		if pr.why != "" {
			ph.failed++
			ph.reasons[pr.why]++
		}
		ph.mu.Unlock()
	}
	return answer{ok: pr.why == "", top1: pr.top1, lo: pr.lo, hi: pr.hi}
}

// run executes one op that was due at due, its requests back to back (each
// due when the previous answer was read), and records it into ph.
func (r *runner) run(ctx context.Context, o *op, due time.Time, ph *phase) answer {
	var off time.Duration
	if ph != nil {
		off = due.Sub(ph.start)
	}
	pr := &progress{}
	for !r.request(ctx, o, pr, due, off) {
		due = time.Now()
	}
	return r.record(pr, ph)
}

// openSessions creates the stream session pool.
func (r *runner) openSessions(ctx context.Context) error {
	r.sessions = make(chan string, r.w.sessions) // holds every pooled session
	for i := 0; i < r.w.sessions; i++ {
		code, body, err := r.c.do(ctx, http.MethodPost, r.base+"/api/session", []byte("{}"))
		if why := checkStatus(code, err); why != "" {
			return fmt.Errorf("open session: %s", why)
		}
		var resp struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || resp.ID == "" {
			return fmt.Errorf("open session: bad response %q", body)
		}
		r.sessions <- resp.ID
	}
	return nil
}

// warmup runs the warm-up ops serially, untimed but checked.
func (r *runner) warmup(ctx context.Context) *phase {
	ph := newPhase()
	ph.start = time.Now()
	for i := range r.w.warm {
		if ctx.Err() != nil {
			break
		}
		r.warm = append(r.warm, r.run(ctx, &r.w.warm[i], time.Now(), ph))
	}
	return ph
}

// waitDeps blocks until every op o depends on has completed.
func (r *runner) waitDeps(ctx context.Context, o *op) bool {
	for _, d := range o.deps {
		select {
		case <-r.done[d]:
		case <-ctx.Done():
			return false
		}
	}
	return true
}

// exec runs timed op i and marks it complete.
func (r *runner) exec(ctx context.Context, i int, due time.Time, ph *phase) {
	defer close(r.done[i])
	r.answers[i] = r.run(ctx, &r.w.ops[i], due, ph)
}

// task is one request due at due: op i's next one.
type task struct {
	i   int
	due time.Time
}

// paced runs ops[:paced] as an open loop at the workload's rate on conns
// connections. Each op is due at a fixed point of the schedule; a due
// request waits in the client queue until a connection is free, and its
// latency counts from its due time. A dictation's next request is due when
// the previous answer has been read, and queues behind the requests already
// due.
func (r *runner) paced(ctx context.Context, conns int) *phase {
	ph := newPhase()
	n := r.w.paced
	interval := time.Duration(float64(time.Second) / r.w.rate)
	ph.start = time.Now().Add(2 * time.Millisecond)
	sends := 0
	for i := 0; i < n; i++ {
		sends += 1 + len(r.w.ops[i].clauses)
	}
	queue := make(chan task, sends) // sized to the number of sends: no send ever blocks
	states := make([]progress, n)
	var open sync.WaitGroup // ops released and not yet complete
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			open.Wait()
			close(queue)
		}()
		timer := time.NewTimer(0)
		defer timer.Stop()
		<-timer.C
		for i := 0; i < n; i++ {
			due := ph.start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				timer.Reset(d)
				select {
				case <-timer.C:
				case <-ctx.Done():
					return
				}
			}
			late := time.Since(due)
			ph.mu.Lock()
			ph.late = append(ph.late, float64(late)/1e3)
			ph.mu.Unlock()
			open.Add(1)
			queue <- task{i, due}
		}
	}()
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range queue {
				o, pr := &r.w.ops[t.i], &states[t.i]
				if ctx.Err() != nil || !r.waitDeps(ctx, o) {
					open.Done()
					continue
				}
				if pr.step == 0 {
					ph.mu.Lock()
					ph.queueWait = append(ph.queueWait, float64(time.Since(t.due))/1e3)
					ph.mu.Unlock()
				}
				if !r.request(ctx, o, pr, t.due, time.Duration(t.i)*interval) {
					queue <- task{t.i, time.Now()}
					continue
				}
				r.answers[t.i] = r.record(pr, ph)
				close(r.done[t.i])
				open.Done()
			}
		}()
	}
	wg.Wait()
	return ph
}

// saturated runs a closed loop on one connection over the ops after the
// paced ones until they run out, and for a workload without a fixed op set
// for at most dur. Before each op it lets cal run a kernel slice when one
// is due, and it tells cal each op's request time.
func (r *runner) saturated(ctx context.Context, dur time.Duration, cal *calibrator) *phase {
	ph := newPhase()
	ph.start = time.Now()
	end := ph.start.Add(dur)
	for i := r.w.paced; i < len(r.w.ops) && ctx.Err() == nil && (r.w.fixed || time.Now().Before(end)); i++ {
		if !r.waitDeps(ctx, &r.w.ops[i]) {
			break
		}
		cal.before()
		n := len(ph.lat)
		r.exec(ctx, i, time.Now(), ph)
		var d time.Duration
		for _, s := range ph.lat[n:] {
			d += time.Duration(s.ms * 1e6)
		}
		cal.after(d)
	}
	return ph
}

// throughput is the saturated phase's ok responses per second of request
// time, as measured and normalized by cal. Request time leaves out the load
// generator's own time between requests and the kernel slices.
func (ph *phase) throughput(cal *calibrator) (rps, norm float64, ok int, busy time.Duration) {
	for _, s := range ph.lat {
		busy += time.Duration(s.ms * 1e6)
	}
	return ratio(float64(ph.ok), busy.Seconds()), ratio(float64(ph.ok), cal.normalize(busy).Seconds()), ph.ok, busy
}

// stats fetches the /api/stats counters.
func (r *runner) stats(ctx context.Context) (map[string]int64, error) {
	code, body, err := r.c.do(ctx, http.MethodGet, r.base+"/api/stats", nil)
	if why := checkStatus(code, err); why != "" {
		return nil, fmt.Errorf("GET /api/stats: %s", why)
	}
	var resp struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode /api/stats: %w", err)
	}
	return resp.Counters, nil
}
