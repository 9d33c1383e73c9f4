package main

// calib.go measures how fast the machine runs while the saturated phase
// runs. The reference machine is a VM on a shared host whose speed drifts
// by a quarter or more over minutes (README.md), and a raw throughput
// figure moves with it. Between requests the saturated loop times slices
// of a fixed reference kernel; throughput_norm_rps scales the phase's
// request time by how much faster or slower than nominal the kernel ran
// (see normalize).
//
// The kernel is the same kind of work as the structure search (a weighted
// edit-distance DP walked down a breadth-first arena trie), but its code
// and data belong to the benchmark, so no change to the program under test
// changes its cost. Its trie stays in the core's caches: on the reference
// machine a kernel walking a trie too large for them tracked the program's
// request time less well (README.md).

import (
	"math"
	"math/rand"
	"time"
)

const (
	calSubtrees = 4  // subtrees of the kernel's trie; a slice walks one, in turn
	calQuery    = 12 // query length: DP column cells per node
	calAlphabet = 48 // token ids
	calDepth    = 10 // levels below a subtree root
	// calEvery is the request time between two slices: a slice takes about
	// 0.65 ms, so the kernel adds about 2.5% to the phase's length.
	calEvery = 25 * time.Millisecond
	// calNominal is the slice time the normalized figure assumes: about the
	// mean slice time in a saturated phase on the reference machine.
	calNominal = 650 * time.Microsecond
	// calExponent is how much the program's request time moves per unit of
	// the kernel's slice time, both on a log scale: over 150 s of engine
	// searches on the reference machine, 2-second windows of search time
	// moved 1.2 times as much as the kernel's (correlation 0.94). The
	// kernel runs in the caches; the program also waits on memory and the
	// network stack, which a busy host slows more.
	calExponent = 1.2
)

// calTrie is the kernel's trie in arena form: node i's children are
// [first[i], first[i]+num[i]). Every subtree has the same shape, so every
// slice does the same work.
type calTrie struct {
	tok   []uint8
	first []int32
	num   []int32
	roots []int32 // subtree roots
}

// newCalTrie builds the kernel's trie from a fixed seed: one random shape
// (branching 1-5 down to depth 6, then 0-2 down to depth 10, about 4,000
// nodes), copied calSubtrees times with random tokens and laid out
// breadth-first like the program's frozen tries.
func newCalTrie() *calTrie {
	rng := rand.New(rand.NewSource(20240611))
	// shape[d][k] is the child count of the k-th node (BFS order) at depth d.
	var shape [][]int32
	width := 1
	for d := 0; d < calDepth; d++ {
		kids := make([]int32, width)
		width = 0
		for k := range kids {
			if d < 6 {
				kids[k] = int32(1 + rng.Intn(5))
			} else {
				kids[k] = int32(rng.Intn(3))
			}
			width += int(kids[k])
		}
		shape = append(shape, kids)
	}
	t := &calTrie{}
	add := func() int32 {
		t.tok = append(t.tok, uint8(rng.Intn(calAlphabet)))
		t.first = append(t.first, 0)
		t.num = append(t.num, 0)
		return int32(len(t.tok) - 1)
	}
	add() // the arena root, with the subtrees below it
	// level[s] holds subtree s's nodes on the current level.
	level := make([][]int32, calSubtrees)
	for s := range level {
		level[s] = []int32{add()}
		t.roots = append(t.roots, level[s][0])
	}
	t.first[0], t.num[0] = 1, calSubtrees
	for d := 0; d < calDepth; d++ {
		next := make([][]int32, calSubtrees)
		for k, c := range shape[d] {
			for s := range level {
				ni := level[s][k]
				t.first[ni], t.num[ni] = int32(len(t.tok)), c
				for j := int32(0); j < c; j++ {
					next[s] = append(next[s], add())
				}
			}
		}
		level = next
	}
	return t
}

// calibrator times kernel slices between the requests of one connection.
type calibrator struct {
	t      *calTrie
	q      []float64 // query tokens as DP weights (token id + 1)
	cols   [][]float64
	next   int           // subtree the next slice walks
	since  time.Duration // request time since the last slice
	slices []time.Duration
	sink   float64 // keeps the DP from being optimized away
}

// newCalibrator builds the kernel; call it outside every timed part.
func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(7))
	c := &calibrator{t: newCalTrie(), q: make([]float64, calQuery)}
	for i := range c.q {
		c.q[i] = float64(1 + rng.Intn(calAlphabet))
	}
	for d := 0; d <= calDepth+1; d++ {
		c.cols = append(c.cols, make([]float64, calQuery+1))
	}
	return c
}

// walk advances the DP column of node ni (cols[depth]) into each child
// and descends; it visits every node below ni.
func (c *calibrator) walk(ni int32, depth int) {
	t := c.t
	prev, col := c.cols[depth], c.cols[depth+1]
	for ci := t.first[ni]; ci < t.first[ni]+t.num[ni]; ci++ {
		tok := float64(t.tok[ci]) + 1
		col[0] = prev[0] + 1
		for j := 1; j <= calQuery; j++ {
			sub := prev[j-1]
			if d := tok - c.q[j-1]; d != 0 {
				sub += 1 + 0.01*d*d
			}
			v := prev[j] + 1
			if w := col[j-1] + 1; w < v {
				v = w
			}
			if sub < v {
				v = sub
			}
			col[j] = v
		}
		c.sink += col[calQuery]
		c.walk(ci, depth+1)
	}
}

// slice runs the kernel once and records its time.
func (c *calibrator) slice() {
	for j := range c.cols[0] {
		c.cols[0][j] = float64(j)
	}
	t0 := time.Now()
	c.walk(c.t.roots[c.next%len(c.t.roots)], 0)
	c.slices = append(c.slices, time.Since(t0))
	c.next++
	c.since = 0
}

// before is called before each request; it runs a slice at the start and
// after every calEvery of request time.
func (c *calibrator) before() {
	if len(c.slices) == 0 || c.since >= calEvery {
		c.slice()
	}
}

// after adds a request's time.
func (c *calibrator) after(d time.Duration) { c.since += d }

// mean is the mean slice time (calNominal before any slice). Request time
// is a sum, so the mean, outliers included, is the matching average: on
// the reference machine the median tracked request time less well.
func (c *calibrator) mean() time.Duration {
	if len(c.slices) == 0 {
		return calNominal
	}
	var s time.Duration
	for _, d := range c.slices {
		s += d
	}
	return s / time.Duration(len(c.slices))
}

// normalize returns request time d as the machine would have spent it had
// the kernel run at its nominal speed: d × (calNominal / mean)^calExponent.
func (c *calibrator) normalize(d time.Duration) time.Duration {
	return time.Duration(float64(d) * math.Pow(float64(calNominal)/float64(c.mean()), calExponent))
}
