package dataset

import (
	"math/rand"
	"strconv"
	"strings"

	"speakql/internal/grammar"
	"speakql/internal/speech"
	"speakql/internal/sqlengine"
	"speakql/internal/sqltoken"
)

// SpokenQuery is one generated dataset item: the ground-truth SQL, its
// token multiset (for the accuracy metrics), its ground-truth structure,
// and the spoken word sequence a Polly-style synthesizer produces for it.
type SpokenQuery struct {
	SQL       string
	Tokens    []string
	Structure []string // generic-masked ground truth structure
	Spoken    []string
	// Schema names the database the query was generated against; set by
	// multi-schema corpora (speakql-datagen -schemas) so a multi-tenant
	// harness can route each query to its tenant. Empty in single-schema
	// corpora, keeping their files byte-identical to earlier releases.
	Schema string `json:",omitempty"`
}

// GenConfig configures query generation (Section 6.1, steps 2–5).
type GenConfig struct {
	Grammar grammar.GenConfig
	N       int
	Seed    int64
}

// GenerateQueries runs the paper's dataset-generation procedure over db:
// draw a random structure from the grammar, type its placeholders, then bind
// tables first, attributes second (from the bound tables' columns), and
// attribute values last (from the bound attribute's actual column), exactly
// the binding order of Section 6.1 step 4.
func GenerateQueries(db *sqlengine.Database, cfg GenConfig) []SpokenQuery {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]SpokenQuery, 0, cfg.N)
	for len(out) < cfg.N {
		structure := grammar.RandomStructure(rng, cfg.Grammar)
		sqlToks, ok := bindStructure(db, rng, structure)
		if !ok {
			continue
		}
		sql := renderSQL(sqlToks)
		// Cycle through the eight synthetic voices, as the paper's corpus
		// cycles Polly's eight US-English speakers.
		voice := speech.VoiceFor(len(out))
		out = append(out, SpokenQuery{
			SQL:       sql,
			Tokens:    sqltoken.TokenizeSQL(sql),
			Structure: structure,
			Spoken:    voice.VerbalizeQuery(sql),
		})
	}
	return out
}

// boundTok is a structure token bound to a literal, remembering whether the
// literal must be quoted when rendered.
type boundTok struct {
	text   string
	quoted bool
}

// bindStructure replaces every placeholder in structure with a literal from
// db. It returns ok=false when the database cannot supply a needed literal
// (e.g. no tables), which the caller treats as "redraw".
func bindStructure(db *sqlengine.Database, rng *rand.Rand, structure []string) ([]boundTok, bool) {
	tables := db.Tables()
	if len(tables) == 0 {
		return nil, false
	}
	out := make([]boundTok, len(structure))
	for i, t := range structure {
		out[i] = boundTok{text: t}
	}

	// Pass 1: bind FROM-clause tables (distinct random tables).
	fromIdx := fromPlaceholders(structure)
	perm := rng.Perm(len(tables))
	var bound []*sqlengine.Table
	for k, idx := range fromIdx {
		tbl := tables[perm[k%len(perm)]]
		out[idx] = boundTok{text: tbl.Name}
		bound = append(bound, tbl)
	}
	if len(bound) == 0 {
		return nil, false
	}
	colPool := unionCols(bound)
	if len(colPool) == 0 {
		return nil, false
	}

	// Pass 2: walk the structure binding attributes and values in context.
	section := ""
	var lastAttr attrBinding
	i := 0
	n := len(structure)
	fromSet := map[int]bool{}
	for _, idx := range fromIdx {
		fromSet[idx] = true
	}

	bindAttr := func(idx int) attrBinding {
		c := colPool[rng.Intn(len(colPool))]
		out[idx] = boundTok{text: c.col.Name}
		return c
	}
	bindQualified := func(ti, ai int) attrBinding {
		tbl := bound[rng.Intn(len(bound))]
		if len(tbl.Cols) == 0 {
			return attrBinding{}
		}
		col := tbl.Cols[rng.Intn(len(tbl.Cols))]
		out[ti] = boundTok{text: tbl.Name}
		out[ai] = boundTok{text: col.Name}
		return attrBinding{table: tbl, col: col}
	}
	bindValue := func(idx int) {
		text, quoted := drawValue(rng, lastAttr)
		out[idx] = boundTok{text: text, quoted: quoted}
	}

	isLit := func(t string) bool { return sqltoken.Classify(t) == sqltoken.Literal }
	for i < n {
		tok := strings.ToUpper(structure[i])
		switch tok {
		case "SELECT", "FROM", "WHERE":
			section = tok
			i++
		case "GROUP", "ORDER":
			i += 2 // skip BY
			if i < n && isLit(structure[i]) {
				if i+2 < n && structure[i+1] == "." && isLit(structure[i+2]) {
					bindQualified(i, i+2)
					i += 3
				} else {
					bindAttr(i)
					i++
				}
			}
		case "LIMIT":
			i++
			if i < n && isLit(structure[i]) {
				out[i] = boundTok{text: strconv.Itoa(1 + rng.Intn(100))}
				i++
			}
		case "BETWEEN":
			i++
			if i < n && isLit(structure[i]) {
				bindValue(i)
				i++
			}
			if i < n && strings.ToUpper(structure[i]) == "AND" {
				i++
			}
			if i < n && isLit(structure[i]) {
				bindValue(i)
				i++
			}
		case "IN":
			i++
			for i < n && structure[i] != ")" {
				if isLit(structure[i]) {
					bindValue(i)
				}
				i++
			}
		default:
			if !isLit(structure[i]) {
				i++
				continue
			}
			if fromSet[i] {
				i++
				continue
			}
			switch section {
			case "WHERE":
				// Left side (attr or qualified), operator, right side.
				if i+2 < n && structure[i+1] == "." && isLit(structure[i+2]) {
					lastAttr = bindQualified(i, i+2)
					i += 3
				} else {
					lastAttr = bindAttr(i)
					i++
				}
				if i < n {
					switch structure[i] {
					case "=", "<", ">":
						i++
						if i < n && isLit(structure[i]) {
							if i+2 < n && structure[i+1] == "." && isLit(structure[i+2]) {
								bindQualified(i, i+2)
								i += 3
							} else {
								bindValue(i)
								i++
							}
						}
					}
				}
			default: // SELECT list and anything else
				if i+2 < n && structure[i+1] == "." && isLit(structure[i+2]) {
					bindQualified(i, i+2)
					i += 3
				} else {
					bindAttr(i)
					i++
				}
			}
		}
	}
	return out, true
}

type attrBinding struct {
	table *sqlengine.Table
	col   sqlengine.Column
}

// fromPlaceholders returns the structure indices of FROM-clause table
// placeholders.
func fromPlaceholders(structure []string) []int {
	var idx []int
	in := false
	for i, t := range structure {
		up := strings.ToUpper(t)
		switch up {
		case "FROM":
			in = true
			continue
		case "WHERE", "GROUP", "ORDER", "LIMIT":
			in = false
		}
		if in && sqltoken.Classify(t) == sqltoken.Literal {
			idx = append(idx, i)
		}
	}
	return idx
}

func unionCols(tables []*sqlengine.Table) []attrBinding {
	var out []attrBinding
	seen := map[string]bool{}
	for _, t := range tables {
		for _, c := range t.Cols {
			if seen[strings.ToLower(c.Name)] {
				continue
			}
			seen[strings.ToLower(c.Name)] = true
			out = append(out, attrBinding{table: t, col: c})
		}
	}
	return out
}

// drawValue samples an attribute value from the bound attribute's column
// (a real database instance value, per the procedure), falling back to a
// literal constant when the column is empty.
func drawValue(rng *rand.Rand, a attrBinding) (text string, quoted bool) {
	if a.table == nil || len(a.table.Rows) == 0 {
		return strconv.Itoa(1 + rng.Intn(1000)), false
	}
	ci := a.table.ColIndex(a.col.Name)
	if ci < 0 {
		return strconv.Itoa(1 + rng.Intn(1000)), false
	}
	v := a.table.Rows[rng.Intn(len(a.table.Rows))][ci]
	switch v.Kind {
	case sqlengine.KindInt, sqlengine.KindFloat:
		return v.String(), false
	default:
		return v.String(), true
	}
}

// renderSQL renders bound tokens as the ground-truth SQL string in the
// paper's spaced style.
func renderSQL(toks []boundTok) string {
	parts := make([]string, len(toks))
	for i, t := range toks {
		if t.quoted {
			parts[i] = "'" + t.text + "'"
		} else {
			parts[i] = t.text
		}
	}
	return strings.Join(parts, " ")
}

// Corpus bundles the paper's dataset splits: 750 Employees training
// queries, 500 Employees test queries, 500 Yelp test queries.
type Corpus struct {
	EmployeesTrain []SpokenQuery
	EmployeesTest  []SpokenQuery
	YelpTest       []SpokenQuery
}

// CorpusConfig scales corpus generation.
type CorpusConfig struct {
	Grammar       grammar.GenConfig
	TrainN, TestN int
	YelpN         int
	Seed          int64
}

// NewCorpus generates the full spoken-SQL corpus over the given databases.
func NewCorpus(empDB, yelpDB *sqlengine.Database, cfg CorpusConfig) Corpus {
	return Corpus{
		EmployeesTrain: GenerateQueries(empDB, GenConfig{Grammar: cfg.Grammar, N: cfg.TrainN, Seed: cfg.Seed}),
		EmployeesTest:  GenerateQueries(empDB, GenConfig{Grammar: cfg.Grammar, N: cfg.TestN, Seed: cfg.Seed + 1}),
		YelpTest:       GenerateQueries(yelpDB, GenConfig{Grammar: cfg.Grammar, N: cfg.YelpN, Seed: cfg.Seed + 2}),
	}
}
