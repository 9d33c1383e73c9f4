package trieindex

// Resumable prefix search: the clause-streaming pipeline re-searches the
// structure index every time the dictated transcript grows by a clause. The
// DP these searches run is prefix-monotone — row i of the (query × structure)
// table depends only on rows ≤ i, i.e. on the first i query tokens — so the
// work done for a shorter prefix is a checkpoint the longer query can extend
// instead of discard. PrefixSearcher exploits that: it checkpoints the DP
// frontier row of each previous top-k candidate at every clause boundary,
// extends those rows by just the new suffix, and uses the resulting exact
// distances to pre-seed the search's pruning bound, so the re-search prunes
// as if it had already found last clause's winners.

import (
	"context"
	"math"

	"speakql/internal/sqltoken"
)

// PrefixSearcher is a resumable top-k searcher over a growing masked
// transcript. Extend appends the tokens a new clause contributed; Search
// re-runs the top-k search for the full current query, warm-started from the
// frontier checkpoints of the previous search. Results are bit-identical to
// a from-scratch SearchTopK on the same query (TestPrefixSearcherMatchesScratch):
//
//   - Each checkpointed candidate keeps its final DP row (the frontier after
//     all current query tokens). The edit-distance recurrence for query row i
//     reads only rows i−1 and i, never later ones, so appending Δ query
//     tokens advances a frontier in O(Δ·|structure|) and yields exactly the
//     distance a from-scratch DP would compute — the same cells, the same
//     float operations, the same bits.
//   - The k-th largest checkpointed distance B therefore upper-bounds the
//     global k-th-best distance for the extended query (the previous winners
//     are real candidates at exactly those distances). Seeding the search's
//     pruning with B is then sound: the seed prunes only d > B, so
//     equal-distance candidates survive, every true top-k candidate has
//     d ≤ B, and surviving candidates keep their enumeration order, so the
//     final (distance, sequence) order picks the identical result list.
//
// Seeding applies only to the exact search modes. Under the approximate DAP
// and INV options, branch choices depend on intermediate scores that a
// tighter bound could perturb, so PrefixSearcher falls back to an unseeded
// search there — still resumable, just without the warm-start pruning.
//
// A PrefixSearcher is not safe for concurrent use; the index it was created
// from may be searched concurrently as usual.
type PrefixSearcher struct {
	ix    *Index
	k     int
	opts  Options
	exact bool // seeding is sound (no DAP/INV)

	q  []tokenID // the full masked query so far, interned
	qw []float64 // deletion weight per query token

	pool []prefixCandidate // previous top-k with checkpointed frontiers
}

// prefixCandidate is one checkpointed candidate: a structure from the
// previous search whose DP frontier row is kept current as the query grows.
type prefixCandidate struct {
	ids []tokenID // the structure's tokens, interned
	row []float64 // DP frontier: row |query| of the (query × structure) table
}

// dist is the candidate's exact distance to the current full query.
func (c *prefixCandidate) dist() float64 { return c.row[len(c.row)-1] }

// advance extends the frontier by one query token with deletion weight qw,
// in place. This is the flatDistance row recurrence verbatim (same operand
// order, so the floats agree bitwise with the search kernels).
func (c *prefixCandidate) advance(ix *Index, uniform bool, id tokenID, qw float64) {
	r := c.row
	prev := r[0] // the cell diagonally up-left of the one being written
	r[0] += qw
	for j := 1; j < len(r); j++ {
		old := r[j]
		if b := c.ids[j-1]; id == b {
			r[j] = prev
		} else {
			w := 1.0
			if !uniform {
				w = ix.weights[b]
			}
			del := old + qw   // delete the query token
			ins := r[j-1] + w // insert the structure token
			if del < ins {
				r[j] = del
			} else {
				r[j] = ins
			}
		}
		prev = old
	}
}

// NewPrefixSearcher creates a resumable top-k searcher over the index.
// k < 1 is clamped to 1. opts mean the same as in SearchTopK.
func (ix *Index) NewPrefixSearcher(k int, opts Options) *PrefixSearcher {
	if k < 1 {
		k = 1
	}
	return &PrefixSearcher{ix: ix, k: k, opts: opts, exact: !opts.DAP && !opts.INV}
}

// Extend appends the masked tokens a new fragment contributed to the query
// and advances every checkpointed frontier across them. Call Search (or
// SearchContext) afterwards for the updated top-k.
func (p *PrefixSearcher) Extend(maskOut []string) {
	for _, t := range maskOut {
		id := p.ix.in.lookup(t)
		w := sqltoken.Weight(t)
		if p.opts.UniformWeights {
			w = 1
		}
		p.q = append(p.q, id)
		p.qw = append(p.qw, w)
		for i := range p.pool {
			p.pool[i].advance(p.ix, p.opts.UniformWeights, id, w)
		}
	}
}

// Reset discards the accumulated query and all checkpoints (capacity is
// kept). Used when masking is not a pure extension of the previous query —
// e.g. a spoken-form substitution merged tokens across the clause boundary —
// and the searcher must start over.
func (p *PrefixSearcher) Reset() {
	p.q = p.q[:0]
	p.qw = p.qw[:0]
	p.pool = p.pool[:0]
}

// QueryLen returns the number of masked tokens accumulated so far.
func (p *PrefixSearcher) QueryLen() int { return len(p.q) }

// Search runs the top-k search for the full accumulated query, warm-started
// from the checkpoints, and re-checkpoints the winners. See SearchContext.
func (p *PrefixSearcher) Search() ([]Result, Stats) {
	return p.SearchContext(context.Background())
}

// SearchContext is Search with cancellation (checked at partition
// boundaries, like SearchTopKContext). A cancelled search returns partial
// results and leaves the previous checkpoints in place — they remain exact
// for the current query, so the next call still warm-starts correctly.
func (p *PrefixSearcher) SearchContext(ctx context.Context) ([]Result, Stats) {
	rs, st := p.ix.searchTopKSeeded(ctx, p.q, p.qw, p.k, p.opts, p.seedBound())
	if ctx.Err() == nil {
		p.checkpoint(rs)
	}
	return rs, st
}

// seedBound derives the warm-start pruning bound from the checkpoints: the
// largest checkpointed distance, valid only when the pool is known to hold
// as many candidates as the search can return (otherwise the true k-th best
// may exceed every pooled distance and +Inf must be used).
func (p *PrefixSearcher) seedBound() float64 {
	want := p.k
	if t := p.ix.total; t < want {
		want = t
	}
	if !p.exact || len(p.pool) < want || len(p.pool) == 0 {
		return math.Inf(1)
	}
	b := p.pool[0].dist()
	for _, c := range p.pool[1:] {
		if d := c.dist(); d > b {
			b = d
		}
	}
	return b
}

// checkpoint replaces the candidate pool with the latest results, computing
// each winner's frontier row from scratch (O(k·|q|·|structure|), negligible
// next to the search itself).
func (p *PrefixSearcher) checkpoint(rs []Result) {
	p.pool = p.pool[:0]
	for _, r := range rs {
		c := prefixCandidate{
			ids: make([]tokenID, len(r.Tokens)),
			row: make([]float64, len(r.Tokens)+1),
		}
		for j, t := range r.Tokens {
			c.ids[j] = p.ix.in.lookup(t)
		}
		for j := 1; j <= len(c.ids); j++ {
			w := 1.0
			if !p.opts.UniformWeights {
				w = p.ix.weights[c.ids[j-1]]
			}
			c.row[j] = c.row[j-1] + w
		}
		for i, id := range p.q {
			c.advance(p.ix, p.opts.UniformWeights, id, p.qw[i])
		}
		p.pool = append(p.pool, c)
	}
}
