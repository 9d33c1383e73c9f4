package experiments

import (
	"strings"
	"testing"
)

var testEnv *Env

func env(t testing.TB) *Env {
	t.Helper()
	if testEnv == nil {
		e, err := NewEnv(ScaleTest)
		if err != nil {
			t.Fatalf("build env: %v", err)
		}
		testEnv = e
	}
	return testEnv
}

func TestTable2Shapes(t *testing.T) {
	r := RunTable2(env(t))
	if len(r.Splits) != 3 {
		t.Fatalf("splits = %d", len(r.Splits))
	}
	for _, s := range r.Splits {
		// SpeakQL must improve WRR over raw ASR on every split.
		if s.Top1.WRR <= s.ASR.WRR {
			t.Errorf("%s: SpeakQL WRR %.2f not above ASR %.2f", s.Name, s.Top1.WRR, s.ASR.WRR)
		}
		// Top-5 dominates top-1 element-wise by construction of Best.
		if s.Top5.WRR < s.Top1.WRR-1e-9 {
			t.Errorf("%s: top5 WRR below top1", s.Name)
		}
		// Keywords and SplChars should be near-perfect after correction.
		if s.Top1.KPR < 0.9 || s.Top1.SPR < 0.9 {
			t.Errorf("%s: corrected KPR/SPR too low: %.2f/%.2f", s.Name, s.Top1.KPR, s.Top1.SPR)
		}
	}
	// Yelp literal recall must trail Employees (ASR trained on Employees).
	empTest, yelp := r.Splits[1], r.Splits[2]
	if yelp.Top1.LRR >= empTest.Top1.LRR {
		t.Errorf("Yelp LRR %.2f not below Employees-test LRR %.2f (generalization gap)",
			yelp.Top1.LRR, empTest.Top1.LRR)
	}
	if !strings.Contains(r.Render(), "WRR lift") {
		t.Error("render missing lift line")
	}
}

func TestFigure6Shapes(t *testing.T) {
	r := RunFigure6(env(t))
	// SpeakQL's TED distribution must dominate ASR's (more mass at low TED).
	if r.SpeakQLTED.At(4) <= r.ASRTED.At(4) {
		t.Errorf("SpeakQL TED CDF at 4 (%.2f) not above ASR (%.2f)",
			r.SpeakQLTED.At(4), r.ASRTED.At(4))
	}
	if r.TEDUnder6 < 0.5 {
		t.Errorf("TED<6 fraction %.2f too low", r.TEDUnder6)
	}
	if r.RTUnder2s < 0.9 {
		t.Errorf("runtime<2s fraction %.2f (should be ~all at test scale)", r.RTUnder2s)
	}
}

func TestFigure7Shapes(t *testing.T) {
	r := RunFigure7(env(t))
	if len(r.Summaries) != 12 {
		t.Fatalf("summaries = %d", len(r.Summaries))
	}
	if r.MeanSpeedupAll < 1.5 {
		t.Errorf("mean speedup %.2f too low", r.MeanSpeedupAll)
	}
	if r.MeanEffortRedAll < 3 {
		t.Errorf("mean effort reduction %.2f too low", r.MeanEffortRedAll)
	}
	if r.TimeSignP > 0.01 || r.EffortSignP > 0.01 {
		t.Errorf("hypothesis tests not significant: time p=%.3g effort p=%.3g",
			r.TimeSignP, r.EffortSignP)
	}
}

func TestFigure8Shapes(t *testing.T) {
	r := RunFigure8(env(t))
	if r.StructExactFrac < 0.5 {
		t.Errorf("exact structure fraction %.2f too low", r.StructExactFrac)
	}
	// Paper ordering: tables ≥ attributes ≥ values.
	if r.MeanTableRecall < r.MeanValueRecall {
		t.Errorf("table recall %.2f below value recall %.2f",
			r.MeanTableRecall, r.MeanValueRecall)
	}
	if r.MeanTableRecall < 0.6 {
		t.Errorf("table recall %.2f too low", r.MeanTableRecall)
	}
}

func TestFigure11Shapes(t *testing.T) {
	r := RunFigure11(env(t))
	if len(r.Names) != 9 || len(r.ASR) != 9 || len(r.SpeakQL) != 9 {
		t.Fatal("metric count wrong (8 rates + WER)")
	}
	// For WRR (index 7), SpeakQL should have more mass at 1.0 than ASR —
	// i.e. less mass strictly below 1.
	if r.SpeakQL[7].At(0.99) >= r.ASR[7].At(0.99) {
		t.Errorf("SpeakQL WRR mass below 1.0 (%.2f) not smaller than ASR's (%.2f)",
			r.SpeakQL[7].At(0.99), r.ASR[7].At(0.99))
	}
	// WER (index 8) is an error metric: SpeakQL must have MORE mass at low
	// values than ASR.
	if r.SpeakQL[8].At(0.1) <= r.ASR[8].At(0.1) {
		t.Errorf("SpeakQL WER mass ≤0.1 (%.2f) not above ASR's (%.2f)",
			r.SpeakQL[8].At(0.1), r.ASR[8].At(0.1))
	}
}

func TestTable4Shapes(t *testing.T) {
	r := RunTable4(env(t))
	// ACS (trained) must beat GCS on literal recall and word recall.
	if r.ACS.LRR <= r.GCS.LRR {
		t.Errorf("ACS LRR %.2f not above GCS %.2f", r.ACS.LRR, r.GCS.LRR)
	}
	if r.ACS.WRR <= r.GCS.WRR {
		t.Errorf("ACS WRR %.2f not above GCS %.2f", r.ACS.WRR, r.GCS.WRR)
	}
	// GCS's symbol hints give it strong SplChar precision.
	if r.GCS.SPR < 0.7 {
		t.Errorf("GCS SPR %.2f too low for hint mode", r.GCS.SPR)
	}
}

func TestFigure14Shapes(t *testing.T) {
	r := RunFigure14(env(t))
	if r.MeanLatency <= 0 {
		t.Fatal("no latency recorded")
	}
	if r.LatencySec.At(1.5) < 0.95 {
		t.Errorf("structure latency above 1.5s for %.2f of queries at test scale",
			1-r.LatencySec.At(1.5))
	}
}

func TestFigure15Shapes(t *testing.T) {
	r := RunFigure15(env(t))
	if len(r.Variants) != 6 {
		t.Fatalf("variants = %d", len(r.Variants))
	}
	// The weighting ablation: uniform weights must not beat the paper's
	// class weighting on exact-structure accuracy.
	var uniform, def0 AblationVariant
	for _, v := range r.Variants {
		if v.Name == "Uniform weights" {
			uniform = v
		}
		if v.Name == "SpeakQL Default" {
			def0 = v
		}
	}
	if uniform.ExactFrac > def0.ExactFrac+0.02 {
		t.Errorf("uniform weights beat class weights: %.3f vs %.3f",
			uniform.ExactFrac, def0.ExactFrac)
	}
	byName := map[string]AblationVariant{}
	for _, v := range r.Variants {
		byName[v.Name] = v
	}
	def := byName["SpeakQL Default"]
	noBDB := byName["Default - BDB"]
	dap := byName["Default + DAP"]
	// BDB is accuracy preserving.
	if def.ExactFrac != noBDB.ExactFrac {
		t.Errorf("BDB changed accuracy: %.3f vs %.3f", def.ExactFrac, noBDB.ExactFrac)
	}
	// BDB saves work (wall time is load-sensitive in tests; sweep nodes
	// plus dive steps are the deterministic measure behind it).
	work := func(v AblationVariant) float64 { return v.MeanSweepNodes + v.MeanDiveSteps }
	if work(def) >= work(noBDB) {
		t.Errorf("BDB did not save work: %.0f vs %.0f nodes", work(def), work(noBDB))
	}
	// DAP visits fewer nodes but is not more accurate than exact search.
	if work(dap) >= work(def) {
		t.Errorf("DAP not cheaper: %.0f vs default %.0f nodes", work(dap), work(def))
	}
	if dap.MeanDiveSteps != 0 {
		t.Errorf("DAP dove: %.0f steps per query", dap.MeanDiveSteps)
	}
	if dap.ExactFrac > def.ExactFrac+1e-9 {
		t.Errorf("DAP more accurate than exact search?")
	}
}

func TestFigure16Shapes(t *testing.T) {
	r := RunFigure16(env(t))
	if r.NStrings == 0 || r.NDates == 0 {
		t.Fatalf("no value samples: %+v", r)
	}
	// Strings recover best; numbers and dates suffer (the paper's exact
	// ordering is strings ≥ dates ≥ numbers). The ordering assertion needs
	// a real sample; the tiny test-scale corpus has only a handful of
	// numeric values, so it is checked only when n is meaningful — the
	// default-scale harness (EXPERIMENTS.md) verifies it at full size.
	if r.NNumbers >= 30 && r.ExactStrings < r.ExactNumbers {
		t.Errorf("strings exact %.2f below numbers %.2f (n=%d)",
			r.ExactStrings, r.ExactNumbers, r.NNumbers)
	}
	if r.ExactStrings <= 0.2 {
		t.Errorf("string values almost never recovered: %.2f", r.ExactStrings)
	}
}

func TestFigure17Shapes(t *testing.T) {
	r := RunFigure17(env(t))
	// Phonetic representation must find literals at distance 0 more often.
	if r.PhoneticZero <= r.CharZero {
		t.Errorf("phonetic zero-distance %.2f not above char %.2f",
			r.PhoneticZero, r.CharZero)
	}
	// And within a smaller maximum distance.
	if r.PhoneticMax > r.CharMax {
		t.Errorf("phonetic max distance %.0f exceeds char %.0f", r.PhoneticMax, r.CharMax)
	}
}

func TestFigure18Shapes(t *testing.T) {
	r := RunFigure18(env(t))
	if r.N == 0 {
		t.Fatal("no nested queries evaluated")
	}
	if r.TableRecall < 0.3 {
		t.Errorf("nested table recall %.2f too low", r.TableRecall)
	}
}

func TestTable5Shapes(t *testing.T) {
	r := RunTable5(env(t))
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	get := func(sys, mod string) Table5Row {
		for _, row := range r.Rows {
			if row.System == sys && row.Modality == mod {
				return row
			}
		}
		t.Fatalf("missing row %s/%s", sys, mod)
		return Table5Row{}
	}
	sotaT := get("SOTA", "Typed")
	sotaS := get("SOTA", "Speech")
	nalT := get("NaLIR", "Typed")
	nalS := get("NaLIR", "Speech")
	speak := get("SpeakQL", "Speech")
	// Typed ≥ spoken for both NLIs (ASR can only hurt).
	if sotaS.WikiExec > sotaT.WikiExec || nalS.WikiExec > nalT.WikiExec {
		t.Error("spoken NLI beat typed NLI")
	}
	// Speech collapses SOTA's execution accuracy materially.
	if sotaT.WikiExec-sotaS.WikiExec < 0.15 {
		t.Errorf("speech drop too small: typed %.2f spoken %.2f",
			sotaT.WikiExec, sotaS.WikiExec)
	}
	// SpeakQL (spoken SQL) beats the spoken SOTA on both benchmarks. At
	// test scale the structure corpus caps predicates at one, so two-
	// condition wiki queries are out of coverage; allow a small slack
	// there — the default-scale harness asserts the strict ordering.
	slack := 0.0
	if env(t).Scale == ScaleTest {
		slack = 0.15
	}
	if speak.WikiExec <= sotaS.WikiExec-slack {
		t.Errorf("SpeakQL exec %.2f not above spoken SOTA %.2f",
			speak.WikiExec, sotaS.WikiExec)
	}
	if speak.SpidSpid <= sotaS.SpidSpid {
		t.Errorf("SpeakQL spider-acc %.2f not above spoken SOTA %.2f",
			speak.SpidSpid, sotaS.SpidSpid)
	}
	// NaLIR is the weakest system in every condition.
	if nalT.WikiExec >= sotaT.WikiExec {
		t.Error("NaLIR typed beat SOTA typed")
	}
}

func TestAllAndByID(t *testing.T) {
	if got := len(IDs()); got != 14 {
		t.Fatalf("IDs = %d", got)
	}
	for _, id := range IDs() {
		r, ok := ByID(env(t), id)
		if !ok {
			t.Fatalf("ByID(%s) missing", id)
		}
		out := r.Render()
		if len(out) == 0 || !strings.Contains(out, "—") {
			t.Errorf("render of %s looks empty: %q", id, out)
		}
	}
	if _, ok := ByID(env(t), "nope"); ok {
		t.Error("unknown id accepted")
	}
}

func TestColumnAwareAblation(t *testing.T) {
	r := RunColumnAware(env(t))
	if r.N == 0 {
		t.Fatal("no evaluations")
	}
	// Column-aware voting must not hurt value recall; a strict gain is
	// expected at full scale but small corpora can tie.
	if r.ColumnVal < r.GlobalVal-0.02 {
		t.Errorf("column-aware value recall %.3f below global %.3f",
			r.ColumnVal, r.GlobalVal)
	}
	if !strings.Contains(r.Render(), "column-aware") {
		t.Error("render missing")
	}
}

func TestValidationABShapes(t *testing.T) {
	r := RunValidationAB(env(t))
	if len(r.Rows) != 2 || r.Rows[0].Corpus != "Employees" || r.Rows[1].Corpus != "Yelp" {
		t.Fatalf("rows = %+v", r.Rows)
	}
	lifted := false
	for _, row := range r.Rows {
		if row.N == 0 {
			t.Fatalf("%s: empty corpus", row.Corpus)
		}
		if row.OffTop1 < 0 || row.OffTop1 > 1 || row.OnTop1 < 0 || row.OnTop1 > 1 {
			t.Fatalf("%s: accuracy out of range: %+v", row.Corpus, row)
		}
		// Verdict re-ranking only reorders candidates within one correction,
		// so it should not cost execution accuracy; a regression here means
		// an ok candidate was demoted below a failing one.
		if row.OnTop1 < row.OffTop1-1e-9 {
			t.Errorf("%s: validation hurt top-1 exec accuracy: off %.3f on %.3f",
				row.Corpus, row.OffTop1, row.OnTop1)
		}
		if row.OnTop1 > row.OffTop1+1e-9 {
			lifted = true
			if row.Changed == 0 {
				t.Errorf("%s: accuracy lifted with no top-1 change", row.Corpus)
			}
		}
	}
	// The headline claim of the stage: at least one corpus gains top-1
	// execution accuracy from demoting failed candidates (EXPERIMENTS.md).
	if !lifted {
		t.Error("no corpus showed a top-1 execution-accuracy lift")
	}
	if !strings.Contains(r.Render(), "Exec-acc") {
		t.Error("render missing accuracy columns")
	}
}
