package experiments

import (
	"fmt"
	"strings"
	"time"

	"speakql/internal/metrics"
	"speakql/internal/sqltoken"
	"speakql/internal/structure"
	"speakql/internal/trieindex"
)

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Figure15Result reproduces Appendix F.5's ablation of the structure
// determination optimizations: SpeakQL Default (BDB on), Default−BDB,
// Default+DAP, Default+INV, Default+DAP+INV, reporting both the accuracy
// (TED CDF) and runtime CDFs. BDB must be accuracy-preserving and save
// time; DAP and INV must trade accuracy for speed.
type Figure15Result struct {
	Variants []AblationVariant
}

// AblationVariant is one configuration's measurements.
type AblationVariant struct {
	Name       string
	TED        metrics.CDF
	RuntimeSec metrics.CDF
	ExactFrac  float64 // fraction with TED 0
	MeanMS     float64
	// MeanSweepNodes and MeanDiveSteps are the mean trie search work per
	// query, the deterministic measure behind the runtime differences:
	// trie nodes the partition sweep visited, and DP columns the warm-start
	// dive stepped. They are kept apart because a change to one need not
	// move the other.
	MeanSweepNodes float64
	MeanDiveSteps  float64
}

// ID implements Result.
func (Figure15Result) ID() string { return "figure15" }

// RunFigure15 evaluates each variant over the Employees test set, sharing a
// single INV-capable index so that only the search options differ.
func RunFigure15(env *Env) Figure15Result {
	// A fresh index with the inverted lists kept (INV needs them).
	ix, err := structure.BuildIndex(env.GrammarCfg, true)
	if err != nil {
		panic(err)
	}
	variants := []struct {
		name string
		opts trieindex.Options
	}{
		{"SpeakQL Default", trieindex.Options{}},
		{"Default - BDB", trieindex.Options{DisableBDB: true}},
		{"Default + DAP", trieindex.Options{DAP: true}},
		{"Default + INV", trieindex.Options{INV: true}},
		{"Default + DAP + INV", trieindex.Options{DAP: true, INV: true}},
		// Beyond the paper's set: ablate the W_K>W_S>W_L weighting itself
		// (Section 3.4 argues the ordering is what matters).
		{"Uniform weights", trieindex.Options{UniformWeights: true}},
	}
	// Pre-transcribe once so every variant sees identical inputs.
	type item struct {
		transcript string
		structure  []string
	}
	var items []item
	for _, q := range env.Corpus.EmployeesTest {
		items = append(items, item{env.ACS.Transcribe(q.Spoken), q.Structure})
	}

	var res Figure15Result
	for _, v := range variants {
		comp := structure.NewFromIndex(ix, v.opts, env.GrammarCfg)
		// Warm-up pass: fault in the trie pages and let the allocator
		// settle so the timed pass measures search work, not cache state.
		for _, it := range items[:min(len(items), 25)] {
			comp.Determine(it.transcript)
		}
		var teds, secs []float64
		exact := 0
		nodes, steps := 0, 0
		var total time.Duration
		for _, it := range items {
			t0 := time.Now()
			det := comp.Determine(it.transcript)
			d := time.Since(t0)
			total += d
			secs = append(secs, d.Seconds())
			nodes += det.Stats.NodesVisited
			steps += det.Stats.DiveSteps
			ted := metrics.TokenEditDistance(it.structure, sqltoken.MaskGeneric(det.Structure))
			teds = append(teds, float64(ted))
			if ted == 0 {
				exact++
			}
		}
		res.Variants = append(res.Variants, AblationVariant{
			Name:           v.name,
			TED:            metrics.NewCDF(teds),
			RuntimeSec:     metrics.NewCDF(secs),
			ExactFrac:      float64(exact) / float64(len(items)),
			MeanMS:         1000 * total.Seconds() / float64(len(items)),
			MeanSweepNodes: float64(nodes) / float64(len(items)),
			MeanDiveSteps:  float64(steps) / float64(len(items)),
		})
	}
	return res
}

// Render implements Result.
func (r Figure15Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 15 — structure determination ablation (Employees test)\n")
	var rows [][]string
	for _, v := range r.Variants {
		rows = append(rows, []string{
			v.Name,
			f2(v.ExactFrac),
			fmt.Sprintf("%.1f", v.MeanMS),
			fmt.Sprintf("%.0f", v.MeanSweepNodes),
			fmt.Sprintf("%.0f", v.MeanDiveSteps),
			f2(v.TED.At(4)),
			f2(v.RuntimeSec.At(0.1)),
		})
	}
	b.WriteString(table(
		[]string{"Variant", "TED=0 frac", "mean ms", "sweep nodes", "dive steps", "TED≤4 frac", "rt<100ms frac"},
		rows))
	b.WriteString("  (BDB is accuracy-preserving: its TED column must equal Default's;\n" +
		"   DAP/INV trade accuracy for runtime, as in the paper; sweep nodes\n" +
		"   and dive steps are means per query, and DAP does not dive)\n")
	return b.String()
}
