// Package grammar implements the SQL subset grammar of the paper (Box 1,
// Appendix C): Select-Project-Join-Aggregation queries with LIMIT and
// ORDER BY / GROUP BY, natural joins and comma joins, conjunctive /
// disjunctive predicates, BETWEEN and IN. It provides
//
//   - bounded enumeration of ground-truth SQL structures (Section 3.2's
//     offline Structure Generator), emitted in increasing token length so a
//     structure cap keeps the shortest (most common) structures;
//   - random structure derivation, used by the dataset generation procedure
//     of Section 6.1 (step 2);
//   - category assignment (Section 4.1): typing every literal placeholder in
//     a structure as a table name, attribute name, attribute value, or
//     LIMIT count.
//
// Two deliberate extensions over the literally-printed Box 1, both required
// to derive the paper's own example queries (Table 6): NATURAL JOIN chains
// in the FROM clause, and ORDER BY / GROUP BY / LIMIT tails on queries
// without a WHERE clause (Table 6's Q6 and Q11 have no WHERE).
package grammar

import "fmt"

// Lit is the generic literal symbol of the grammar (production L → 'x').
const Lit = "x"

// GenConfig bounds structure enumeration. The full grammar is infinite; the
// paper caps strings at 50 tokens and reports ≈1.6M structures, which
// implies additional (unstated) limits on repetition; these knobs make those
// limits explicit.
type GenConfig struct {
	// MaxTokens is the hard cap on structure length (the paper uses 50).
	MaxTokens int
	// MaxSelectItems bounds the number of items in the SELECT list.
	MaxSelectItems int
	// MaxPredicates bounds AND/OR-chained comparison predicates in WHERE.
	MaxPredicates int
	// MaxTables bounds comma-separated tables in FROM.
	MaxTables int
	// MaxJoinTables bounds NATURAL JOIN chains in FROM.
	MaxJoinTables int
	// MaxInList bounds the number of values in an IN (…) list.
	MaxInList int
	// MaxStructures, when positive, caps the number of generated
	// structures; enumeration is length-ordered, so the cap keeps every
	// structure below some token length and a deterministic prefix of the
	// next length.
	MaxStructures int
}

// TestScale is a small configuration for unit tests: a few thousand
// structures, generated in milliseconds.
func TestScale() GenConfig {
	return GenConfig{
		MaxTokens:      30,
		MaxSelectItems: 2,
		MaxPredicates:  1,
		MaxTables:      2,
		MaxJoinTables:  2,
		MaxInList:      2,
	}
}

// DefaultScale is the configuration the experiment harness uses: 516,705
// structures, enough to exhibit the paper's latency/accuracy behaviour
// while building in seconds.
func DefaultScale() GenConfig {
	return GenConfig{
		MaxTokens:      40,
		MaxSelectItems: 2,
		MaxPredicates:  2,
		MaxTables:      3,
		MaxJoinTables:  3,
		MaxInList:      5,
	}
}

// PaperScale approximates the paper's corpus: strings up to 50 tokens,
// on the order of 10^6 structures (≈3.6M; the paper reports ≈1.6M).
func PaperScale() GenConfig {
	return GenConfig{
		MaxTokens:      50,
		MaxSelectItems: 3,
		MaxPredicates:  2,
		MaxTables:      3,
		MaxJoinTables:  3,
		MaxInList:      5,
	}
}

// Validate reports whether the configuration is usable.
func (c GenConfig) Validate() error {
	switch {
	case c.MaxTokens < 4:
		return fmt.Errorf("grammar: MaxTokens %d too small for any query", c.MaxTokens)
	case c.MaxSelectItems < 1:
		return fmt.Errorf("grammar: MaxSelectItems must be ≥ 1")
	case c.MaxPredicates < 0, c.MaxTables < 1, c.MaxJoinTables < 1, c.MaxInList < 1:
		return fmt.Errorf("grammar: negative or zero repetition bound")
	}
	return nil
}

// aggOps are the aggregate functions of production SEL_OP.
var aggOps = []string{"AVG", "SUM", "MAX", "MIN", "COUNT"}

// cmpOps are the comparison operators of production OP.
var cmpOps = []string{"=", "<", ">"}

// connectives join predicates in WD.
var connectives = []string{"AND", "OR"}

// variant is one alternative expansion of a clause, as a token sequence.
type variant []string

func cat(parts ...[]string) variant {
	var v variant
	for _, p := range parts {
		v = append(v, p...)
	}
	return v
}

// selectItemsFirst returns the variants allowed as the first SELECT item
// (Box 1's S productions): a literal, an aggregate over a literal, or
// COUNT(*).
func selectItemsFirst() []variant {
	vs := []variant{{Lit}}
	for _, op := range aggOps {
		vs = append(vs, variant{op, "(", Lit, ")"})
	}
	vs = append(vs, variant{"COUNT", "(", "*", ")"})
	return vs
}

// selectItemsRest returns the variants allowed for subsequent SELECT items
// (production C): a literal or an aggregate over a literal. COUNT(*) is
// also allowed here — a deliberate extension over the printed Box 1 (whose
// C production omits it), because "SELECT g , COUNT ( * ) … GROUP BY g" is
// among the most common spoken analysis shapes.
func selectItemsRest() []variant {
	vs := []variant{{Lit}}
	for _, op := range aggOps {
		vs = append(vs, variant{op, "(", Lit, ")"})
	}
	vs = append(vs, variant{"COUNT", "(", "*", ")"})
	return vs
}

// selectVariants enumerates SELECT clauses: SELECT * plus item lists up to
// cfg.MaxSelectItems.
func selectVariants(cfg GenConfig) []variant {
	out := []variant{{"SELECT", "*"}}
	lists := [][]variant{nil} // lists[k] = all item lists of k items
	first := selectItemsFirst()
	rest := selectItemsRest()
	cur := make([]variant, 0, len(first))
	for _, f := range first {
		cur = append(cur, f)
	}
	for k := 1; k <= cfg.MaxSelectItems; k++ {
		lists = append(lists, cur)
		if k == cfg.MaxSelectItems {
			break
		}
		var next []variant
		for _, prefix := range cur {
			for _, r := range rest {
				next = append(next, cat(prefix, []string{","}, r))
			}
		}
		cur = next
	}
	for k := 1; k < len(lists); k++ {
		for _, l := range lists[k] {
			out = append(out, cat([]string{"SELECT"}, l))
		}
	}
	return out
}

// fromVariants enumerates FROM clauses: a single table, NATURAL JOIN chains
// up to MaxJoinTables, and comma lists up to MaxTables.
func fromVariants(cfg GenConfig) []variant {
	out := []variant{{"FROM", Lit}}
	join := variant{"FROM", Lit}
	for k := 2; k <= cfg.MaxJoinTables; k++ {
		join = cat(join, []string{"NATURAL", "JOIN", Lit})
		out = append(out, join)
	}
	comma := variant{"FROM", Lit}
	for k := 2; k <= cfg.MaxTables; k++ {
		comma = cat(comma, []string{",", Lit})
		out = append(out, comma)
	}
	return out
}

// operandVariants returns the two operand shapes of EXP: a bare literal and
// a qualified reference WDD (x . x).
func operandVariants() []variant {
	return []variant{{Lit}, {Lit, ".", Lit}}
}

// expVariants enumerates single comparison predicates (production EXP):
// operand OP operand, 2×3×2 = 12 shapes.
func expVariants() []variant {
	var out []variant
	for _, l := range operandVariants() {
		for _, op := range cmpOps {
			for _, r := range operandVariants() {
				out = append(out, cat(l, []string{op}, r))
			}
		}
	}
	return out
}

// wdVariants enumerates predicate chains (production WD) with up to
// cfg.MaxPredicates predicates joined by AND/OR.
func wdVariants(cfg GenConfig) []variant {
	exps := expVariants()
	var out []variant
	cur := exps
	for k := 1; k <= cfg.MaxPredicates; k++ {
		out = append(out, cur...)
		if k == cfg.MaxPredicates {
			break
		}
		var next []variant
		for _, prefix := range cur {
			for _, conn := range connectives {
				for _, e := range exps {
					next = append(next, cat(prefix, []string{conn}, e))
				}
			}
		}
		cur = next
	}
	return out
}

// tailVariants enumerates the trailing clause CLS/LMT of production AGG:
// ORDER BY / GROUP BY over a literal or a qualified reference, and LIMIT.
func tailVariants() []variant {
	var out []variant
	for _, cls := range [][]string{{"ORDER", "BY"}, {"GROUP", "BY"}} {
		for _, tgt := range operandVariants() {
			out = append(out, cat(cls, tgt))
		}
	}
	out = append(out, variant{"LIMIT", Lit})
	return out
}

// specialWhereVariants enumerates the BETWEEN and IN forms of production
// AGG that constitute a whole WHERE body on their own.
func specialWhereVariants(cfg GenConfig) []variant {
	out := []variant{
		{Lit, "BETWEEN", Lit, "AND", Lit},
		{Lit, "NOT", "BETWEEN", Lit, "AND", Lit},
	}
	in := variant{Lit, "IN", "(", Lit}
	for k := 1; k <= cfg.MaxInList; k++ {
		out = append(out, cat(in, []string{")"}))
		in = cat(in, []string{",", Lit})
	}
	return out
}

// whereVariants enumerates complete WHERE bodies: plain predicate chains,
// predicate chains with a CLS/LMT tail, and the BETWEEN/IN specials
// (optionally tailed as well, matching AGG → WD CLS L composition).
func whereVariants(cfg GenConfig) []variant {
	var out []variant
	wds := wdVariants(cfg)
	tails := tailVariants()
	specials := specialWhereVariants(cfg)
	for _, w := range wds {
		out = append(out, cat([]string{"WHERE"}, w))
		for _, t := range tails {
			out = append(out, cat([]string{"WHERE"}, w, t))
		}
	}
	out = append(out, prefixAll("WHERE", specials)...)
	return out
}

func prefixAll(kw string, vs []variant) []variant {
	out := make([]variant, len(vs))
	for i, v := range vs {
		out[i] = cat([]string{kw}, v)
	}
	return out
}

// endVariants enumerates everything after FROM: nothing, a WHERE body, or a
// bare CLS/LMT tail (the extension deriving Table 6's Q6/Q11).
func endVariants(cfg GenConfig) []variant {
	out := []variant{{}}
	out = append(out, whereVariants(cfg)...)
	out = append(out, tailVariants()...)
	return out
}

// Generate enumerates every structure permitted by cfg in increasing token
// length (ties resolved deterministically by clause enumeration order) and
// calls emit for each. Generation stops early if emit returns false or the
// MaxStructures cap is reached. The token slice passed to emit is reused;
// callers must copy it if retained.
func Generate(cfg GenConfig, emit func(tokens []string) bool) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	sel := groupByLen(selectVariants(cfg))
	from := groupByLen(fromVariants(cfg))
	end := groupByLen(endVariants(cfg))
	count := 0
	buf := make([]string, 0, cfg.MaxTokens)
	for total := 2; total <= cfg.MaxTokens; total++ {
		for ls, svs := range sel {
			if len(svs) == 0 || ls > total {
				continue
			}
			for lf, fvs := range from {
				if len(fvs) == 0 || ls+lf > total {
					continue
				}
				le := total - ls - lf
				if le < 0 || le >= len(end) {
					continue
				}
				evs := end[le]
				if len(evs) == 0 {
					continue
				}
				for _, s := range svs {
					for _, f := range fvs {
						for _, e := range evs {
							buf = buf[:0]
							buf = append(buf, s...)
							buf = append(buf, f...)
							buf = append(buf, e...)
							if !emit(buf) {
								return nil
							}
							count++
							if cfg.MaxStructures > 0 && count >= cfg.MaxStructures {
								return nil
							}
						}
					}
				}
			}
		}
	}
	return nil
}

// groupByLen buckets variants by token length; index = length.
func groupByLen(vs []variant) [][]variant {
	maxLen := 0
	for _, v := range vs {
		if len(v) > maxLen {
			maxLen = len(v)
		}
	}
	out := make([][]variant, maxLen+1)
	for _, v := range vs {
		out[len(v)] = append(out[len(v)], v)
	}
	return out
}

// Count returns the number of structures cfg generates (subject to its own
// MaxStructures cap).
func Count(cfg GenConfig) (int, error) {
	n := 0
	err := Generate(cfg, func([]string) bool { n++; return true })
	return n, err
}
