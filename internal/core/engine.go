// Package core wires SpeakQL's components into the end-to-end pipeline of
// Figure 2: ASR transcript → structure determination (grammar-indexed trie
// search) → literal determination (phonetic voting against the database
// catalog) → ranked, syntactically-correct SQL candidates ready for the
// interactive display.
package core

import (
	"context"
	"strings"
	"time"

	"speakql/internal/grammar"
	"speakql/internal/literal"
	"speakql/internal/obs"
	"speakql/internal/sqlengine"
	"speakql/internal/sqltoken"
	"speakql/internal/structure"
)

// Config configures an Engine.
type Config struct {
	// Grammar bounds the structure corpus (Section 3.2). Zero value means
	// grammar.DefaultScale().
	Grammar grammar.GenConfig
	// Catalog is the phonetic representation of the queried database.
	Catalog *literal.Catalog
	// TopKLiterals is the per-placeholder candidate count for the
	// interactive display (default 5).
	TopKLiterals int
	// StructureCacheSize bounds the LRU memo cache for structure searches,
	// keyed by the masked transcript (see SearchLRU). 0 disables caching.
	StructureCacheSize int
}

// Engine is the SpeakQL correction engine. Construction generates and
// indexes the structure corpus (the offline step); Correct is cheap and
// safe for concurrent use.
type Engine struct {
	structure *structure.Component
	catalog   *literal.Catalog
	kLiterals int
	cache     *SearchLRU // nil when caching is disabled

	// Validation stage (DESIGN.md §15), installed via SetValidation; a nil
	// validateDB keeps the stage off regardless of mode.
	validation ValidationMode
	validateDB *sqlengine.Database
}

// NewEngine builds the engine, generating the structure index for
// cfg.Grammar.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Grammar.MaxTokens == 0 {
		cfg.Grammar = grammar.DefaultScale()
	}
	if cfg.TopKLiterals <= 0 {
		cfg.TopKLiterals = 5
	}
	if cfg.Catalog == nil {
		cfg.Catalog = literal.NewCatalog(nil, nil, nil)
	}
	sc, err := structure.New(structure.Config{Grammar: cfg.Grammar})
	if err != nil {
		return nil, err
	}
	e := &Engine{structure: sc, catalog: cfg.Catalog, kLiterals: cfg.TopKLiterals}
	if cfg.StructureCacheSize > 0 {
		e.cache = NewSearchLRU(cfg.StructureCacheSize)
		sc.SetSearchCache(e.cache)
	}
	return e, nil
}

// NewEngineWithComponent builds an engine around an existing structure
// component (sharing one index across engines, e.g. in ablations).
func NewEngineWithComponent(sc *structure.Component, cat *literal.Catalog, kLiterals int) *Engine {
	if kLiterals <= 0 {
		kLiterals = 5
	}
	if cat == nil {
		cat = literal.NewCatalog(nil, nil, nil)
	}
	return &Engine{structure: sc, catalog: cat, kLiterals: kLiterals}
}

// EnableSearchCache installs a structure-search memo cache of the given
// size on an already-built engine (used by the engine-sharing paths that
// bypass NewEngine). size <= 0 is a no-op. Returns the cache, or nil.
func (e *Engine) EnableSearchCache(size int) *SearchLRU {
	if size <= 0 {
		return nil
	}
	e.cache = NewSearchLRU(size)
	e.structure.SetSearchCache(e.cache)
	return e.cache
}

// AdoptSearchCache records an existing shared cache as this engine's cache
// without creating or reinstalling anything: the cache lives on the shared
// structure component, which already consults it for every engine built
// around that component. The tenant registry uses this so all per-tenant
// engines report the one process-wide SearchLRU (the cache key is the
// masked transcript plus k — schema-independent — so sharing across
// tenants is sound). Contrast EnableSearchCache, which creates a NEW cache
// and must not be called on engines sharing a component.
func (e *Engine) AdoptSearchCache(c *SearchLRU) { e.cache = c }

// SearchCache returns the engine's structure-search cache, nil when
// caching is disabled.
func (e *Engine) SearchCache() *SearchLRU { return e.cache }

// Catalog returns the engine's literal catalog.
func (e *Engine) Catalog() *literal.Catalog { return e.catalog }

// StructureComponent exposes the structure determiner (component-level
// evaluation).
func (e *Engine) StructureComponent() *structure.Component { return e.structure }

// Candidate is one corrected query hypothesis.
type Candidate struct {
	// SQL is the rendered query string, values quoted.
	SQL string
	// Tokens is the filled token sequence (unquoted), the form the
	// accuracy metrics compare.
	Tokens []string
	// Structure is the skeleton with numbered placeholders.
	Structure []string
	// Bindings carries the per-placeholder ranked literals for the
	// interactive display's alternatives menu.
	Bindings []literal.Binding
	// StructureDistance is the weighted edit distance of the matched
	// structure.
	StructureDistance float64
	// Verdict is the validation stage's classification of this candidate
	// (sqlengine.Verdict values); empty when the candidate was never
	// validated (validation off, shed, or degraded output).
	Verdict string
	// Demoted reports that validation moved this candidate down from its
	// pre-validation rank (a better-verdict candidate overtook it).
	Demoted bool
}

// Degradation levels of the graceful-degradation ladder, from intact to
// empty-handed. Every Output carries exactly one, and the engine counts
// each under core.degraded.<level> so /api/stats accounts for the ladder.
const (
	// DegradationFull: both stages ran at their configured fidelity.
	DegradationFull = "full"
	// DegradationStructureOnly: the deadline expired (or the literal stage
	// failed) after structures were found; candidates carry the skeleton
	// with unfilled placeholders and no bindings.
	DegradationStructureOnly = "structure_only"
	// DegradationShed: nothing could be served — structure determination
	// failed or the deadline expired before any structure was found.
	DegradationShed = "shed"
)

// Output is the engine's response for one transcript.
type Output struct {
	// Candidates are ranked hypotheses, best first. Candidates[0] is what
	// the interactive display shows.
	Candidates []Candidate
	// Transcript is the processed transcript (after spoken-form
	// substitution).
	Transcript []string
	// StructureLatency and LiteralLatency time the two stages.
	StructureLatency time.Duration
	LiteralLatency   time.Duration
	// Degradation is the ladder level this response was served at: one of
	// DegradationFull, DegradationStructureOnly, DegradationShed.
	Degradation string
	// Validation records what the validation stage did: "" when the stage
	// is off, "bind" when it ran, or ValidationShed when a configured stage
	// was skipped (expired deadline or injected fault).
	Validation string
	// ValidateLatency times the validation stage (zero unless it ran).
	ValidateLatency time.Duration
	// Err is non-nil when a pipeline stage failed outright (today only via
	// fault injection); Candidates is empty and Degradation is shed.
	Err error
}

// Degraded reports whether the output was served below full fidelity.
func (o Output) Degraded() bool {
	return o.Degradation != "" && o.Degradation != DegradationFull
}

// Best returns the top candidate (zero value if none).
func (o Output) Best() Candidate {
	if len(o.Candidates) == 0 {
		return Candidate{}
	}
	return o.Candidates[0]
}

// Correct runs the full pipeline on a raw ASR transcript, returning the
// single best candidate in Output.Candidates[0].
func (e *Engine) Correct(transcript string) Output {
	return e.CorrectTopK(transcript, 1)
}

// CorrectContext is Correct under a context (see CorrectTopKContext).
func (e *Engine) CorrectContext(ctx context.Context, transcript string) Output {
	return e.CorrectTopKContext(ctx, transcript, 1)
}

// CorrectTopK runs the pipeline keeping k structure hypotheses, each filled
// with literals ("best of top k", Table 2's Top 5 columns).
func (e *Engine) CorrectTopK(transcript string, k int) Output {
	return e.CorrectTopKContext(context.Background(), transcript, k)
}

// CorrectTopKContext is CorrectTopK under a context: cancellation is
// honored between pipeline stages and at trie-partition boundaries inside
// structure determination. Rather than failing outright when the deadline
// tightens, the engine walks the graceful-degradation ladder — full →
// structure_only → shed — and reports the level it served at in
// Output.Degradation. A cancelled call returns promptly with
// whatever partial Output the completed work supports and never leaks a
// goroutine.
func (e *Engine) CorrectTopKContext(ctx context.Context, transcript string, k int) Output {
	if k < 1 {
		k = 1
	}
	span := obs.StartSpan("core.correct")
	defer span.End()
	t0 := time.Now()
	structs, serr := e.structure.DetermineTopKErr(ctx, transcript, k)
	return e.finishPipeline(ctx, t0, structs, serr, nil)
}

// finishPipeline is the pipeline tail shared by one-shot and fragment
// correction: it applies the degradation ladder to the structure stage's
// outcome and runs literal determination (through memo when streaming).
// t0 is when the correction started; the structure stage has just ended.
func (e *Engine) finishPipeline(ctx context.Context, t0 time.Time, structs []structure.Result, serr error, memo *literal.VoteMemo) Output {
	t1 := time.Now()
	out := Output{StructureLatency: t1.Sub(t0)}
	if serr != nil {
		// Structure determination failed outright (fault injection):
		// nothing downstream can run.
		out.Err = serr
		return finish(out, DegradationShed)
	}
	if ctx.Err() != nil {
		obs.Add("core.cancelled", 1)
		if len(structs) == 0 {
			return finish(out, DegradationShed)
		}
		// The deadline passed mid-search: serve the skeletons found so far
		// instead of dropping them — the display can still render the query
		// shape while the user retries.
		return finish(structureOnly(out, structs), DegradationStructureOnly)
	}
	lspan := obs.StartSpan("literal.determine")
	defer lspan.End()
	for _, sr := range structs {
		out.Transcript = sr.Transcript
		bindings, lerr := literal.DetermineMemoErr(sr.Transcript, sr.Structure, e.catalog, e.kLiterals, memo)
		if lerr != nil {
			// The literal stage failed: degrade the whole response to
			// structure-only rather than mixing filled and unfilled
			// candidates in one ranking.
			out.Candidates = nil
			return finish(structureOnly(out, structs), DegradationStructureOnly)
		}
		out.Candidates = append(out.Candidates, Candidate{
			SQL:               literal.RenderSQL(sr.Structure, bindings),
			Tokens:            literal.Fill(sr.Structure, bindings),
			Structure:         sr.Structure,
			Bindings:          bindings,
			StructureDistance: sr.Distance,
		})
	}
	out.LiteralLatency = time.Since(t1)
	e.maybeValidate(ctx, &out)
	return finish(out, DegradationFull)
}

// finish stamps the output's ladder level and counts it.
func finish(out Output, level string) Output {
	out.Degradation = level
	obs.Add("core.degraded."+level, 1)
	return out
}

// structureOnly fills the output with skeleton-level candidates: the
// structure, its placeholders unbound, rendered as-is. Explicitly partial —
// Bindings is nil — but never half-filled.
func structureOnly(out Output, structs []structure.Result) Output {
	for _, sr := range structs {
		out.Transcript = sr.Transcript
		out.Candidates = append(out.Candidates, Candidate{
			SQL:               strings.Join(sr.Structure, " "),
			Tokens:            append([]string(nil), sr.Structure...),
			Structure:         sr.Structure,
			StructureDistance: sr.Distance,
		})
	}
	return out
}

// TokensOf is a convenience that tokenizes a written SQL query the way the
// accuracy metrics expect.
func TokensOf(sql string) []string { return sqltoken.TokenizeSQL(sql) }
