package core

// validate.go is the validation stage (DESIGN.md §15): after structure
// and literal ranking, each candidate is dry-run against the queried
// database's schema — parsed and name-bound, never executed — and
// candidates that cannot run are demoted below any that can, preserving
// relative order inside each verdict class. The stage sits at the very end
// of finishPipeline, after the §9 ladder has settled, and is itself the
// ladder's cheapest sacrifice: an expired request, or an injected validate
// fault, sheds validation and serves the unvalidated ranking — validation
// can only ever reorder a response, never fail one.

import (
	"context"
	"sort"
	"time"

	"speakql/internal/faultinject"
	"speakql/internal/obs"
	"speakql/internal/sqlengine"
)

// ValidationMode selects whether the stage runs.
type ValidationMode string

// Validation modes: off (stage disabled, output bit-identical to an engine
// without the stage) and bind (parse + name binding of every candidate).
const (
	ValidationOff  ValidationMode = "off"
	ValidationBind ValidationMode = "bind"
)

// ParseValidationMode parses the -validate flag value: off, bind, or empty
// (off).
func ParseValidationMode(s string) (ValidationMode, bool) {
	switch ValidationMode(s) {
	case ValidationOff, ValidationBind:
		return ValidationMode(s), true
	case "":
		return ValidationOff, true
	default:
		return ValidationOff, false
	}
}

// Former execute-mode budgets, kept so existing callers still compile.
const (
	// DefaultValidateMaxRows was the per-candidate row budget of the
	// removed execute mode.
	//
	// Deprecated: validation never executes candidates; the engine ignores
	// ValidationConfig.MaxRows.
	DefaultValidateMaxRows = 100_000
	// DefaultValidateTimeout was the per-candidate time budget of the
	// removed execute mode.
	//
	// Deprecated: validation never executes candidates; the engine ignores
	// ValidationConfig.Timeout.
	DefaultValidateTimeout = 50 * time.Millisecond
)

// ValidationConfig configures the engine's validation stage.
type ValidationConfig struct {
	// Mode is off or bind.
	Mode ValidationMode
	// MaxRows was the removed execute mode's row budget.
	//
	// Deprecated: ignored; validation never executes candidates.
	MaxRows int64
	// Timeout was the removed execute mode's time budget.
	//
	// Deprecated: ignored; validation never executes candidates.
	Timeout time.Duration
}

// SetValidation installs the validation stage on an engine: cfg selects
// the mode, db is the database whose schema candidates bind against (the
// demo database, or a rowless schema — see sqlengine.NewSchemaDatabase —
// for catalog-only tenants). A nil db or Mode == off disables the stage.
// Call before serving traffic; the engine treats both values as immutable
// afterwards.
func (e *Engine) SetValidation(cfg ValidationConfig, db *sqlengine.Database) {
	e.validation = cfg.Mode
	e.validateDB = db
}

// ValidationMode returns the engine's active validation mode — off when no
// stage (or no database) is installed. The HTTP memo keys cached bodies on
// this, so a body rendered under one mode is never served under another.
func (e *Engine) ValidationMode() ValidationMode {
	if e.validateDB == nil || e.validation != ValidationBind {
		return ValidationOff
	}
	return ValidationBind
}

// maybeValidate runs the validation stage on a full-fidelity output, in
// place.
func (e *Engine) maybeValidate(ctx context.Context, out *Output) {
	if e.ValidationMode() == ValidationOff || len(out.Candidates) == 0 {
		return
	}
	span := obs.StartSpan("core.validate")
	defer span.End()
	if ctx.Err() != nil {
		e.shedValidation(out, "expired")
		return
	}
	if err := faultinject.Fire(faultinject.StageValidate); err != nil {
		obs.Add("validate.faults", 1)
		e.shedValidation(out, "fault")
		return
	}

	t0 := time.Now()
	for i := range out.Candidates {
		v := sqlengine.DryRun(e.validateDB, out.Candidates[i].SQL)
		out.Candidates[i].Verdict = string(v)
		obs.Add("validate.verdict."+string(v), 1)
	}
	obs.Add("validate.checked", int64(len(out.Candidates)))
	if demoted := rerankByVerdict(out.Candidates); demoted > 0 {
		obs.Add("validate.demoted", int64(demoted))
	}
	out.Validation = string(ValidationBind)
	out.ValidateLatency = time.Since(t0)
}

// shedValidation records that validation was configured but skipped; the
// candidates keep their unvalidated ranking and empty verdicts.
func (e *Engine) shedValidation(out *Output, why string) {
	obs.Add("validate.shed", 1)
	obs.Add("validate.shed."+why, 1)
	out.Validation = ValidationShed
}

// ValidationShed is the Output.Validation value reporting that validation
// was configured but sacrificed for this response (an expired deadline or
// an injected validate fault).
const ValidationShed = "shed"

// rerankByVerdict stably sorts candidates by their verdict class — ok
// first, unknowns next, provable failures last, original order preserved
// within each class — and flags every candidate that lost ground as
// Demoted. When all candidates share a class the order is bit-identical to
// the input. Returns the number of demotions.
func rerankByVerdict(cands []Candidate) int {
	allEqual := true
	for i := 1; i < len(cands); i++ {
		if sqlengine.VerdictRank(sqlengine.Verdict(cands[i].Verdict)) !=
			sqlengine.VerdictRank(sqlengine.Verdict(cands[0].Verdict)) {
			allEqual = false
			break
		}
	}
	if allEqual {
		return 0
	}
	type pos struct {
		c   Candidate
		idx int
	}
	ordered := make([]pos, len(cands))
	for i, c := range cands {
		ordered[i] = pos{c: c, idx: i}
	}
	sort.SliceStable(ordered, func(a, b int) bool {
		return sqlengine.VerdictRank(sqlengine.Verdict(ordered[a].c.Verdict)) <
			sqlengine.VerdictRank(sqlengine.Verdict(ordered[b].c.Verdict))
	})
	demoted := 0
	for i := range ordered {
		ordered[i].c.Demoted = i > ordered[i].idx
		if ordered[i].c.Demoted {
			demoted++
		}
		cands[i] = ordered[i].c
	}
	return demoted
}
