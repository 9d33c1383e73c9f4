// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 6 and Appendix F). Each driver consumes the
// shared Env (databases, corpora, trained ASR engines, SpeakQL engines) and
// returns a renderable result whose rows mirror what the paper reports.
// cmd/speakql-bench runs them all and writes the text report behind
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"speakql/internal/asr"
	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/grammar"
	"speakql/internal/literal"
	"speakql/internal/metrics"
	"speakql/internal/sqlengine"
	"speakql/internal/sqltoken"
	"speakql/internal/structure"
)

// Scale selects the corpus and index sizes.
type Scale string

// Available scales.
const (
	// ScaleTest keeps everything tiny for unit tests (seconds).
	ScaleTest Scale = "test"
	// ScaleDefault is the harness default (516,705 structures, full corpus
	// sizes; minutes).
	ScaleDefault Scale = "default"
	// ScalePaper pushes the structure corpus to the paper's order of
	// magnitude (~3.6M vs the paper's 1.6M).
	ScalePaper Scale = "paper"
)

// Env is the shared experimental environment.
type Env struct {
	Scale      Scale
	GrammarCfg grammar.GenConfig

	EmpDB  *sqlengine.Database
	YelpDB *sqlengine.Database
	Corpus dataset.Corpus

	// Structure is the shared trie index component (built once).
	Structure *structure.Component
	// Engine corrects against the Employees catalog; YelpEngine against
	// the Yelp catalog. Both share Structure's index.
	Engine     *core.Engine
	YelpEngine *core.Engine

	// ACS is customized (trained) on the Employees training corpus; GCS is
	// the untrained hint-based engine (Table 4 / Figure 13).
	ACS *asr.Engine
	GCS *asr.Engine

	// Cache is the structure-search memo cache shared by Engine and
	// YelpEngine (they share one structure component); nil when disabled.
	Cache *core.SearchLRU

	testEvalOnce sync.Once
	testEvals    []QueryEval
}

// TestEvals returns the memoized single-alternative evaluation of the
// Employees test set — five figure drivers consume exactly this, so it is
// computed once per Env.
func (env *Env) TestEvals() []QueryEval {
	env.testEvalOnce.Do(func() {
		env.testEvals = EvalQueries(env.Engine, env.ACS, env.Corpus.EmployeesTest, 1)
	})
	return env.testEvals
}

// NewEnv builds the environment at the given scale. Construction covers the
// offline parts of the paper: database generation, corpus generation,
// structure-index construction, and ASR language-model training. It returns
// an error (not a panic) when the structure index cannot be built, so
// harnesses can report a bad grammar config cleanly.
func NewEnv(scale Scale) (*Env, error) {
	return NewEnvWithOptions(scale, EnvOptions{})
}

// EnvOptions tunes the shared environment beyond its scale.
type EnvOptions struct {
	// CacheSize bounds the structure-search LRU memo cache (0 disables).
	CacheSize int
}

// NewEnvWithOptions is the fully-parameterized environment constructor.
func NewEnvWithOptions(scale Scale, opts EnvOptions) (*Env, error) {
	env := &Env{Scale: scale}
	var corpusSizes [3]int
	switch scale {
	case ScaleTest:
		env.GrammarCfg = grammar.TestScale()
		corpusSizes = [3]int{60, 40, 40}
		env.EmpDB = dataset.NewEmployeesDB(dataset.EmployeesConfig{Employees: 200, Departments: 6, Seed: 1})
		env.YelpDB = dataset.NewYelpDB(dataset.YelpConfig{Businesses: 80, Users: 80, Reviews: 300, Seed: 2})
	case ScalePaper:
		env.GrammarCfg = grammar.PaperScale()
		corpusSizes = [3]int{750, 500, 500}
		env.EmpDB = dataset.NewEmployeesDB(dataset.DefaultEmployeesConfig())
		env.YelpDB = dataset.NewYelpDB(dataset.DefaultYelpConfig())
	default:
		env.GrammarCfg = grammar.DefaultScale()
		corpusSizes = [3]int{750, 500, 500}
		env.EmpDB = dataset.NewEmployeesDB(dataset.DefaultEmployeesConfig())
		env.YelpDB = dataset.NewYelpDB(dataset.DefaultYelpConfig())
	}

	env.Corpus = dataset.NewCorpus(env.EmpDB, env.YelpDB, dataset.CorpusConfig{
		Grammar: env.GrammarCfg,
		TrainN:  corpusSizes[0],
		TestN:   corpusSizes[1],
		YelpN:   corpusSizes[2],
		Seed:    42,
	})

	sc, err := structure.New(structure.Config{Grammar: env.GrammarCfg})
	if err != nil {
		return nil, fmt.Errorf("experiments: structure index: %w", err)
	}
	env.Structure = sc
	if opts.CacheSize > 0 {
		env.Cache = core.NewSearchLRU(opts.CacheSize)
		sc.SetSearchCache(env.Cache)
	}

	empCat := literal.NewCatalog(env.EmpDB.TableNames(), env.EmpDB.AttributeNames(), env.EmpDB.StringValues(0))
	yelpCat := literal.NewCatalog(env.YelpDB.TableNames(), env.YelpDB.AttributeNames(), env.YelpDB.StringValues(0))
	env.Engine = core.NewEngineWithComponent(sc, empCat, 5)
	env.YelpEngine = core.NewEngineWithComponent(sc, yelpCat, 5)

	env.ACS = asr.NewEngine(asr.ACSProfile(), 1001)
	var trainSQL []string
	for _, q := range env.Corpus.EmployeesTrain {
		trainSQL = append(trainSQL, q.SQL)
	}
	env.ACS.TrainQueries(trainSQL)
	env.GCS = asr.NewEngine(asr.GCSProfile(), 1002)
	return env, nil
}

// QueryEval is the per-query record every accuracy experiment consumes.
type QueryEval struct {
	Query dataset.SpokenQuery

	Transcript string   // top-1 ASR output
	ASRTokens  []string // transcript after spoken-form substitution

	ASRRates  metrics.Rates // ASR-only baseline vs ground truth
	Top1Rates metrics.Rates // SpeakQL top-1
	Top5Rates metrics.Rates // best over the 5-alternative outputs

	Top1Tokens    []string
	BestStructure []string
	Bindings      []literal.Binding

	ASRTED    int // token edit distance of the raw transcript
	TED       int // token edit distance of SpeakQL's top-1 output
	StructTED int // structure determination TED vs ground-truth structure

	StructLatency time.Duration
	TotalLatency  time.Duration
}

// EvalQueries runs the full pipeline over a query set with nAlts ASR
// alternatives per query (5 reproduces the paper's Top 5 columns). Queries
// are evaluated concurrently — the engine is read-only after construction —
// with results in input order; per-query latencies remain valid because
// each query's corrections run on one goroutine.
func EvalQueries(engine *core.Engine, ae *asr.Engine, qs []dataset.SpokenQuery, nAlts int) []QueryEval {
	if nAlts < 1 {
		nAlts = 1
	}
	out := make([]QueryEval, len(qs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(qs) {
		workers = len(qs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = evalOne(engine, ae, qs[i], nAlts)
			}
		}()
	}
	for i := range qs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

func evalOne(engine *core.Engine, ae *asr.Engine, q dataset.SpokenQuery, nAlts int) QueryEval {
	ev := QueryEval{Query: q}
	alts := ae.TranscribeN(q.Spoken, nAlts)
	ev.Transcript = alts[0]

	t0 := time.Now()
	res := engine.Correct(alts[0])
	ev.TotalLatency = time.Since(t0)
	ev.StructLatency = res.StructureLatency

	ev.ASRTokens = res.Transcript
	best := res.Best()
	ev.Top1Tokens = best.Tokens
	ev.BestStructure = best.Structure
	ev.Bindings = best.Bindings

	ref := lowerToks(q.Tokens)
	ev.ASRRates = metrics.Compare(q.Tokens, ev.ASRTokens)
	ev.Top1Rates = metrics.Compare(q.Tokens, best.Tokens)
	ev.ASRTED = metrics.TokenEditDistance(ref, lowerToks(ev.ASRTokens))
	ev.TED = metrics.TokenEditDistance(ref, lowerToks(best.Tokens))
	ev.StructTED = metrics.TokenEditDistance(q.Structure, sqltoken.MaskGeneric(best.Tokens))

	rates := []metrics.Rates{ev.Top1Rates}
	for _, alt := range alts[1:] {
		r := engine.Correct(alt)
		rates = append(rates, metrics.Compare(q.Tokens, r.Best().Tokens))
	}
	ev.Top5Rates = metrics.Best(rates)
	return ev
}

func lowerToks(ts []string) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = strings.ToLower(t)
	}
	return out
}

// tedCDF extracts a CDF over a field of the evals.
func tedCDF(evs []QueryEval, f func(QueryEval) float64) metrics.CDF {
	vals := make([]float64, len(evs))
	for i, e := range evs {
		vals[i] = f(e)
	}
	return metrics.NewCDF(vals)
}
