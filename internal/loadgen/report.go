package loadgen

// report.go renders a run into its machine-readable report: per-class
// latency quantiles, throughput, shed and error rates, and the plan
// checksum that proves two runs replayed the same workload.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// ClassReport is one traffic class's measured outcome.
type ClassReport struct {
	Sent      int64   `json:"sent"`
	OK        int64   `json:"ok"`
	Shed      int64   `json:"shed"`
	Errors    int64   `json:"errors"`
	P50Ms     float64 `json:"p50_ms"`
	P90Ms     float64 `json:"p90_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MaxMs     float64 `json:"max_ms"`
	MeanMs    float64 `json:"mean_ms"`
	ShedRate  float64 `json:"shed_rate"`
	ErrorRate float64 `json:"error_rate"`
}

// Report is the full run artifact.
type Report struct {
	Seed            int64                  `json:"seed"`
	Mode            string                 `json:"mode"` // "open" or "closed"
	TargetRPS       float64                `json:"target_rps,omitempty"`
	Concurrency     int                    `json:"concurrency"`
	Mix             string                 `json:"mix"`
	PlanSize        int                    `json:"plan_size"`
	Checksum        string                 `json:"workload_checksum"`
	DurationSeconds float64                `json:"duration_seconds"`
	TotalRequests   int64                  `json:"total_requests"`
	AchievedRPS     float64                `json:"achieved_rps"`
	ShedRate        float64                `json:"shed_rate"`
	ErrorRate       float64                `json:"error_rate"`
	Classes         map[string]ClassReport `json:"classes"`
	FirstErrors     []string               `json:"first_errors,omitempty"`
}

// ms converts a duration to float milliseconds for the JSON report.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rate is n/total guarding the empty run.
func rate(n, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// report snapshots the tallies after a run of the given wall-clock length.
func (r *Runner) report(elapsed time.Duration) *Report {
	rep := &Report{
		Seed:            r.plan.Seed,
		Mode:            "closed",
		Concurrency:     r.cfg.Concurrency,
		Mix:             mixOrDefault(r.cfg.Mix).String(),
		PlanSize:        len(r.plan.Ops),
		Checksum:        r.plan.Checksum(),
		DurationSeconds: elapsed.Seconds(),
		Classes:         map[string]ClassReport{},
	}
	if r.cfg.TargetRPS > 0 {
		rep.Mode = "open"
		rep.TargetRPS = r.cfg.TargetRPS
	}
	var totalSent, totalShed, totalErr int64
	for _, c := range classes {
		t := r.tallies[c]
		sent := t.sent.Load()
		if sent == 0 {
			continue
		}
		sum := t.hist.Summary()
		shed, errs := t.shed.Load(), t.errors.Load()
		rep.Classes[string(c)] = ClassReport{
			Sent:      sent,
			OK:        t.ok.Load(),
			Shed:      shed,
			Errors:    errs,
			P50Ms:     ms(sum.P50),
			P90Ms:     ms(sum.P90),
			P99Ms:     ms(sum.P99),
			MaxMs:     ms(sum.Max),
			MeanMs:    ms(sum.Mean),
			ShedRate:  rate(shed, sent),
			ErrorRate: rate(errs, sent),
		}
		totalSent += sent
		totalShed += shed
		totalErr += errs
	}
	rep.TotalRequests = totalSent
	if secs := elapsed.Seconds(); secs > 0 {
		rep.AchievedRPS = float64(totalSent) / secs
	}
	rep.ShedRate = rate(totalShed, totalSent)
	rep.ErrorRate = rate(totalErr, totalSent)
	for {
		select {
		case s := <-r.firstErrs:
			rep.FirstErrors = append(rep.FirstErrors, s)
			continue
		default:
		}
		break
	}
	sort.Strings(rep.FirstErrors)
	return rep
}

// mixOrDefault mirrors NewPlan's nil handling for the report line.
func mixOrDefault(m Mix) Mix {
	if len(m) == 0 {
		return DefaultMix()
	}
	return m
}

// Render prints the human-readable summary.
func (rep *Report) Render() string {
	out := fmt.Sprintf("loadgen: mode=%s seed=%d mix=%s checksum=%s\n",
		rep.Mode, rep.Seed, rep.Mix, rep.Checksum)
	out += fmt.Sprintf("  %d requests in %.1fs → %.1f req/s (shed %.1f%%, errors %.1f%%)\n",
		rep.TotalRequests, rep.DurationSeconds, rep.AchievedRPS, 100*rep.ShedRate, 100*rep.ErrorRate)
	var names []string
	for name := range rep.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := rep.Classes[name]
		out += fmt.Sprintf("  %-8s sent=%-6d ok=%-6d shed=%-5d err=%-4d p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms\n",
			name, c.Sent, c.OK, c.Shed, c.Errors, c.P50Ms, c.P90Ms, c.P99Ms, c.MaxMs)
	}
	return out
}

// WriteJSON writes the full report to path.
func (rep *Report) WriteJSON(path string) error {
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	return os.WriteFile(path, raw, 0o644)
}
