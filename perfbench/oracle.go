package main

// oracle.go checks answers against engines that share none of the
// program's caches: each correction is answered again by
// core.Engine.CorrectTopKContext, on the tenant's catalog as the PATCHes
// before the request left it, and the served top-1 must equal that answer.
// A finalized dictation must equal the one-shot correction of its full
// transcript. This checks that the correction memo, the search LRU, the
// handler and the incremental stream path never change an answer.
//
// A cache-free search of one popular transcript takes milliseconds at the
// default grammar scale, too long to repeat for every op of a run. So the
// oracle's structure component keeps a record of the searches it has run
// itself: exact keys, never evicted, each filled by a real search the first
// time its key comes up. Every op runs the rest of the pipeline in full, and
// one op in oracleSample (and the first of each search key) is also checked
// on an engine with no search cache at all.

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"speakql/internal/core"
	"speakql/internal/grammar"
	"speakql/internal/literal"
	"speakql/internal/structure"
	"speakql/internal/trieindex"
)

// oracleKeep is how many catalog versions the oracle keeps engines for.
// Answers are checked roughly in op order, so versions near the last one
// asked for are kept; another is rebuilt from the nearest kept version
// below it, or from the base catalog.
const oracleKeep = 8

// oracleSample: one op in oracleSample is also checked with no search
// cache at all.
const oracleSample = 64

// searchRecord is the oracle's record of its own structure searches: a
// structure.SearchCache with exact keys that never evicts.
type searchRecord struct {
	mu sync.Mutex
	m  map[string]recordedSearch
}

type recordedSearch struct {
	rs []trieindex.Result
	st trieindex.Stats
}

func (s *searchRecord) Get(key string) ([]trieindex.Result, trieindex.Stats, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.m[key]
	return r.rs, r.st, ok
}

func (s *searchRecord) Put(key string, rs []trieindex.Result, st trieindex.Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = recordedSearch{rs, st}
}

// oracle answers corrections with none of the program's caches.
type oracle struct {
	comp   *structure.Component // searches through the oracle's own record
	bare   *structure.Component // no search cache
	base   *literal.Catalog     // catalog version 0: before any PATCH
	deltas []literal.CatalogDelta
	mu     sync.Mutex
	// engines holds the engines of a few catalog versions; version v has
	// the first v PATCHes of the workload applied, in op order.
	engines map[int]oracleEngines
}

type oracleEngines struct{ recorded, bare *core.Engine }

func newOracle(ix *trieindex.Index, gcfg grammar.GenConfig, base *literal.Catalog, w *workload) *oracle {
	or := &oracle{comp: structure.NewFromIndex(ix, trieindex.Options{}, gcfg),
		bare: structure.NewFromIndex(ix, trieindex.Options{}, gcfg), base: base, engines: map[int]oracleEngines{}}
	or.comp.SetSearchCache(&searchRecord{m: map[string]recordedSearch{}})
	for i := range w.ops {
		if w.ops[i].kind == kindPatch {
			or.deltas = append(or.deltas, w.ops[i].delta)
		}
	}
	return or
}

// engine returns the oracle's engines on catalog version v.
func (or *oracle) engine(v int) oracleEngines {
	or.mu.Lock()
	defer or.mu.Unlock()
	if e, ok := or.engines[v]; ok {
		return e
	}
	from, cat := 0, or.base
	for u, e := range or.engines {
		if u <= v && u > from {
			from, cat = u, e.bare.Catalog()
		}
	}
	for u := from; u < v && u < len(or.deltas); u++ {
		cat, _ = cat.ApplyDelta(or.deltas[u])
	}
	e := oracleEngines{core.NewEngineWithComponent(or.comp, cat, serverTopKLit),
		core.NewEngineWithComponent(or.bare, cat, serverTopKLit)}
	or.engines[v] = e
	if len(or.engines) > oracleKeep {
		far := v // drop the version farthest from v
		for u := range or.engines {
			if abs(u-v) > abs(far-v) {
				far = u
			}
		}
		delete(or.engines, far)
	}
	return e
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// top1 is the oracle's top-1 SQL for transcript on catalog version v;
// bare asks the engine with no search cache.
func (or *oracle) top1(ctx context.Context, v int, transcript string, topk int, bare bool) string {
	e := or.engine(v)
	eng := e.recorded
	if bare {
		eng = e.bare
	}
	return eng.CorrectTopKContext(ctx, transcript, topk).Best().SQL
}

// matches reports whether a is the oracle's answer to o on one of the
// catalog versions the request could have seen.
func (or *oracle) matches(ctx context.Context, o *op, a answer, bare bool) bool {
	for v := a.lo; v <= a.hi; v++ {
		if or.top1(ctx, v, o.transcript, o.topk, bare) == a.top1 {
			return true
		}
	}
	return false
}

// checked is one answered op to check.
type checked struct {
	o *op
	a answer
}

// checkAll checks every ok answer of the warm-up and the timed phases on
// workers goroutines, and returns how many it checked and how many
// differed from the oracle. It reports the first few mismatches on log.
func (or *oracle) checkAll(ctx context.Context, w *workload, warm, timed []answer, workers int, log io.Writer) (int, int, error) {
	var items []checked
	add := func(ops []op, as []answer) {
		for i := range ops {
			if ops[i].kind != kindPatch && i < len(as) && as[i].ok {
				items = append(items, checked{&ops[i], as[i]})
			}
		}
	}
	add(w.warm, warm)
	add(w.ops, timed)
	var next, bad atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				it := items[i]
				ok := or.matches(ctx, it.o, it.a, false)
				if ok && i%oracleSample == 0 {
					ok = or.matches(ctx, it.o, it.a, true)
				}
				if !ok {
					if n := bad.Add(1); n <= 3 {
						fmt.Fprintf(log, "perfbench: oracle mismatch on %q (catalog versions %d-%d): served %q, oracle %q\n",
							it.o.transcript, it.a.lo, it.a.hi, it.a.top1, or.top1(ctx, it.a.lo, it.o.transcript, it.o.topk, true))
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return 0, 0, fmt.Errorf("oracle check interrupted: %w", err)
	}
	return len(items), int(bad.Load()), nil
}
