package main

// stats.go holds the small statistics the report needs.

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"

	"speakql/internal/metrics"
	"speakql/internal/sqltoken"
)

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// beyond is how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func msOf(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// delta subtracts two counter snapshots.
func delta(before, after map[string]int64) map[string]int64 {
	d := map[string]int64{}
	for k, v := range after {
		if dv := v - before[k]; dv != 0 {
			d[k] = dv
		}
	}
	return d
}

// sumPrefix adds the counters whose names start with prefix.
func sumPrefix(m map[string]int64, prefix string) int64 {
	var s int64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// score compares a top-1 SQL with the ground-truth tokens: exact token
// match (case-insensitive, as metrics.Compare) and word recall rate.
func score(truth []string, top1 string) (exact bool, wrr float64) {
	hyp := sqltoken.TokenizeSQL(top1)
	exact = len(hyp) == len(truth)
	for i := 0; exact && i < len(hyp); i++ {
		exact = strings.EqualFold(hyp[i], truth[i])
	}
	return exact, metrics.Compare(truth, hyp).WRR
}

// runtimeSample reads runtime/metrics values by name.
func runtimeSample(names ...string) []float64 {
	ss := make([]rtmetrics.Sample, len(names))
	for i, n := range names {
		ss[i].Name = n
	}
	rtmetrics.Read(ss)
	out := make([]float64, len(names))
	for i, s := range ss {
		switch s.Value.Kind() {
		case rtmetrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case rtmetrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}
