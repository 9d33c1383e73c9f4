// Package speakql is the public API of SpeakQL-Go, a reproduction of
// "SpeakQL: Towards Speech-driven Multimodal Querying of Structured Data"
// (SIGMOD 2019). It turns erroneous ASR transcriptions of dictated SQL into
// syntactically correct, literal-bound SQL over any schema, in two stages:
//
//   - structure determination — the transcript's literals are masked and
//     the closest SQL skeleton is found by searching pre-generated grammar
//     structures indexed in length-partitioned tries under a SQL-specific
//     weighted edit distance;
//   - literal determination — each placeholder is typed (table name,
//     attribute name, attribute value) and filled by phonetic voting
//     against the queried database's Metaphone-encoded catalog, with
//     dedicated reassembly for numbers and dates that ASR splits apart.
//
// Minimal use:
//
//	cat := speakql.NewCatalog(
//	    []string{"Employees", "Salaries"},
//	    []string{"FirstName", "Salary"},
//	    []string{"John", "Jon"})
//	eng, err := speakql.NewEngine(speakql.Config{Catalog: cat})
//	if err != nil { ... }
//	out := eng.Correct("select sales from employers wear first name equals Jon")
//	fmt.Println(out.Best().SQL)
//	// SELECT Salary FROM Employees WHERE FirstName = 'Jon'
//
// The subpackages under internal/ implement every substrate the paper
// depends on — the verbalizer and noisy-channel ASR simulator standing in
// for Polly/Azure, an in-memory relational engine, dataset and corpus
// generators, NLI baselines, the interface session model, and the
// experiment drivers that regenerate each of the paper's tables and
// figures (see DESIGN.md and EXPERIMENTS.md).
package speakql

import (
	"speakql/internal/core"
	"speakql/internal/grammar"
	"speakql/internal/literal"
	"speakql/internal/sqlengine"
)

// Engine is the SpeakQL correction engine. Construction generates and
// indexes the structure corpus (the offline step of Section 3.2); Correct
// and CorrectTopK are cheap and safe for concurrent use.
type Engine = core.Engine

// Config configures NewEngine.
type Config = core.Config

// Output is the engine's response for one transcript: ranked candidates
// plus the processed transcript and stage latencies.
type Output = core.Output

// Candidate is one corrected-query hypothesis.
type Candidate = core.Candidate

// Catalog is the phonetic representation of a database's literals that
// literal determination votes against.
type Catalog = literal.Catalog

// Binding is the ranked literal assignment for one placeholder.
type Binding = literal.Binding

// GrammarConfig bounds structure-corpus generation.
type GrammarConfig = grammar.GenConfig

// NewEngine builds an engine. A zero Config uses the default grammar scale
// and an empty catalog (structures will be correct, literals unbound).
func NewEngine(cfg Config) (*Engine, error) { return core.NewEngine(cfg) }

// NewCatalog builds the phonetic catalog from table names, attribute
// names, and string attribute values.
func NewCatalog(tables, attrs, values []string) *Catalog {
	return literal.NewCatalog(tables, attrs, values)
}

// CatalogOf extracts a catalog from an in-memory database built with this
// module's sqlengine substrate.
func CatalogOf(db *sqlengine.Database) *Catalog {
	return literal.NewCatalog(db.TableNames(), db.AttributeNames(), db.StringValues(0))
}

// TestGrammar is the smallest grammar scale preset (Section 3.2's
// structure generator): 14,022 structures, built in milliseconds — the
// right choice for tests and examples.
func TestGrammar() GrammarConfig { return grammar.TestScale() }

// DefaultGrammar is the experiment-default grammar scale (516,705
// structures).
func DefaultGrammar() GrammarConfig { return grammar.DefaultScale() }

// PaperGrammar approximates the paper's structure corpus (~3.6M
// structures, ≤50 tokens).
func PaperGrammar() GrammarConfig { return grammar.PaperScale() }

// Tokenize splits a written SQL query into the token multiset the paper's
// accuracy metrics are defined over.
func Tokenize(sql string) []string { return core.TokensOf(sql) }
