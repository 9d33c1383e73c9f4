// Command speakql-loadgen replays a seeded, deterministic mixed workload
// against a running speakql-server and reports per-class latency
// distributions, throughput, shed rate, and error rate — the reproducible
// "heavy traffic from a fleet of displays" probe for the serving tier.
//
// Usage:
//
//	speakql-loadgen -url http://localhost:8080 [-seed 1] [-duration 30s]
//	                [-rps 0] [-concurrency 32] [-mix correct=40,nbest=10,…]
//	                [-plan-size 0] [-timeout 30s] [-json FILE]
//	                [-max-error-rate 0]
//
// Traffic classes (weights via -mix; see internal/loadgen):
//
//	correct  stateless POST /api/correct, topk 1–3
//	nbest    POST /api/correct with topk 5 (ASR n-best shape)
//	dictate  POST /api/dictate against a pool of live sessions
//	stream   POST /api/stream/dictate clause fragments
//	tenant   tenant-scoped corrections (tenants are registered at setup)
//	fault    malformed requests; a clean 400 counts as success
//
// -rps > 0 selects the open-loop mode: requests are released on a fixed
// schedule (request i at t=i/rps) regardless of response times — the
// arrival process a public service actually faces; if the server saturates,
// the report's achieved_rps falls below the target. -rps 0 (default) is the
// closed-loop mode: -concurrency workers each fire the next request the
// moment the previous response lands, probing maximum throughput.
//
// The workload is derived entirely from -seed and -mix: two runs with the
// same parameters replay identical request sequences, and the report's
// workload_checksum proves it — so before/after comparisons across server
// builds measure the server, not workload drift. -json writes the full
// report.
//
// Exit status: 0 on a clean run, 1 when the error rate exceeds
// -max-error-rate (default 0: any request error fails the run; shed 503s
// are never errors — they are the admission gate working), 2 on bad flags
// or an unreachable server. A non-zero -max-error-rate is for chaos runs
// that kill replicas mid-traffic: requests in flight on the dying replica
// are expected, bounded casualties, and the point of the run is to measure
// that rate, not to demand it be zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"speakql/internal/loadgen"
)

func main() {
	url := flag.String("url", "http://localhost:8080", "base URL of the running speakql-server")
	seed := flag.Int64("seed", 1, "workload seed; same seed + mix replays the identical request sequence")
	duration := flag.Duration("duration", 30*time.Second, "how long to drive load")
	rps := flag.Float64("rps", 0, "open-loop target arrival rate; 0 selects the closed-loop (max-throughput) mode")
	concurrency := flag.Int("concurrency", 32, "worker pool size (closed loop: the offered concurrency)")
	mixSpec := flag.String("mix", "", "traffic mix as class=weight pairs, e.g. correct=40,nbest=10,dictate=20,stream=15,tenant=10,fault=5 (empty uses that default)")
	planSize := flag.Int("plan-size", 0, "ops in the generated plan; runs longer than the plan replay it (0 derives from -rps and -duration)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request client timeout")
	jsonOut := flag.String("json", "", "write the full machine-readable report to this file")
	maxErrRate := flag.Float64("max-error-rate", 0,
		"tolerated request error rate before exiting 1 (0 demands a clean run; raise for chaos runs that kill replicas mid-traffic)")
	flag.Parse()

	mix := loadgen.Mix(nil)
	if *mixSpec != "" {
		var err error
		mix, err = loadgen.ParseMix(*mixSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
	}

	runner, err := loadgen.NewRunner(loadgen.Config{
		BaseURL:     *url,
		Seed:        *seed,
		Mix:         mix,
		Duration:    *duration,
		TargetRPS:   *rps,
		Concurrency: *concurrency,
		PlanSize:    *planSize,
		Timeout:     *timeout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := runner.Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	fmt.Print(rep.Render())

	if *jsonOut != "" {
		if err := rep.WriteJSON(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote report to %s\n", *jsonOut)
	}
	if rep.ErrorRate > *maxErrRate {
		fmt.Fprintf(os.Stderr, "run saw errors (rate %.3f > max %.3f): %v\n",
			rep.ErrorRate, *maxErrRate, rep.FirstErrors)
		os.Exit(1)
	}
}
