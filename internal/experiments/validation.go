package experiments

import (
	"fmt"
	"strings"

	"speakql/internal/asr"
	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/nli"
	"speakql/internal/sqlengine"
)

// ValidationABResult is the validation A/B (DESIGN.md §15): top-1
// execution accuracy with the validation stage off versus -validate=bind,
// on the Employees and Yelp test corpora. The untrained
// (GCS) ASR engine supplies the transcripts — the trained engine leaves too
// little error mass at small scales for re-ranking to have headroom, and the
// paper's motivating scenario is exactly the stock cloud ASR channel.
type ValidationABResult struct {
	Rows []ValidationABRow
}

// ValidationABRow is one corpus's A/B measurement.
type ValidationABRow struct {
	Corpus string
	N      int
	// OffTop1 / OnTop1 are top-1 execution-accuracy fractions (a prediction
	// counts when it returns the same result set as the gold SQL).
	OffTop1 float64
	OnTop1  float64
	// Changed counts queries whose top-1 SQL differed between the arms;
	// Demoted counts candidate demotions across the validated arm.
	Changed int
	Demoted int
}

// ID implements Result.
func (ValidationABResult) ID() string { return "validation" }

// RunValidationAB measures both arms over identical transcripts: each query
// is transcribed once, then corrected by an unvalidated engine and by a
// bind-mode validating engine sharing the same structure index and
// catalog, so any top-1 difference is attributable to verdict re-ranking
// alone.
func RunValidationAB(env *Env) ValidationABResult {
	var res ValidationABResult
	res.Rows = append(res.Rows,
		runValidationCorpus(env, "Employees", env.Engine, env.EmpDB, env.Corpus.EmployeesTest),
		runValidationCorpus(env, "Yelp", env.YelpEngine, env.YelpDB, env.Corpus.YelpTest),
	)
	return res
}

func runValidationCorpus(env *Env, name string, base *core.Engine, db *sqlengine.Database, qs []dataset.SpokenQuery) ValidationABRow {
	row := ValidationABRow{Corpus: name, N: len(qs)}
	// Fresh engines sharing the Env's structure index and the base engine's
	// catalog: env.Engine itself stays untouched (other drivers memoize
	// evaluations against it).
	off := core.NewEngineWithComponent(env.Structure, base.Catalog(), 5)
	on := core.NewEngineWithComponent(env.Structure, base.Catalog(), 5)
	on.SetValidation(core.ValidationConfig{Mode: core.ValidationBind}, db)
	// One ASR engine, seeded per corpus: TranscribeN consumes RNG state, so
	// each query is transcribed exactly once and both arms see those bytes.
	ae := asr.NewEngine(asr.GCSProfile(), 4242)
	for _, q := range qs {
		transcript := ae.Transcribe(q.Spoken)
		offOut := off.CorrectTopK(transcript, 5)
		onOut := on.CorrectTopK(transcript, 5)
		offBest := offOut.Best().SQL
		onBest := onOut.Best().SQL
		if nli.ExecutionMatch(db, offBest, q.SQL) {
			row.OffTop1++
		}
		if nli.ExecutionMatch(db, onBest, q.SQL) {
			row.OnTop1++
		}
		if offBest != onBest {
			row.Changed++
		}
		for _, c := range onOut.Candidates {
			if c.Demoted {
				row.Demoted++
			}
		}
	}
	if row.N > 0 {
		row.OffTop1 /= float64(row.N)
		row.OnTop1 /= float64(row.N)
	}
	return row
}

// Render implements Result.
func (r ValidationABResult) Render() string {
	var b strings.Builder
	b.WriteString("Validation A/B — top-1 execution accuracy, -validate=off vs -validate=bind (GCS ASR)\n")
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Corpus, fmt.Sprintf("%d", row.N),
			fmt.Sprintf("%.1f", 100*row.OffTop1),
			fmt.Sprintf("%.1f", 100*row.OnTop1),
			fmt.Sprintf("%+.1f", 100*(row.OnTop1-row.OffTop1)),
			fmt.Sprintf("%d", row.Changed),
			fmt.Sprintf("%d", row.Demoted),
		})
	}
	b.WriteString(table(
		[]string{"Corpus", "n", "Exec-acc off", "Exec-acc bind", "Lift", "Top-1 changed", "Demotions"}, rows))
	b.WriteString("  (bind-mode dry runs demote candidates that fail to parse or bind below\n" +
		"   every passing one; identical transcripts feed both arms)\n")
	return b.String()
}
