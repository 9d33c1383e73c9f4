package sqlengine

// dryrun.go is the validation entry point (DESIGN.md §15): a candidate
// query is dry-run in two stages — parse, then bind against the schema —
// and classified into a Verdict. The correction engine uses verdicts to
// demote candidates that cannot run below any that can (the self-healing
// re-rank). No row is ever read, so a verdict depends only on the SQL and
// the schema.

import "fmt"

// Verdict classifies one candidate's dry-run outcome.
type Verdict string

// The verdicts, best to worst.
const (
	VerdictOK         Verdict = "ok"
	VerdictBindError  Verdict = "bind_error"
	VerdictParseError Verdict = "parse_error"
)

// VerdictRank orders verdicts for re-ranking: lower is better. The empty
// verdict (candidate never validated) is unknown: it ranks below
// candidates proven to bind and above provable failures.
func VerdictRank(v Verdict) int {
	switch v {
	case VerdictOK:
		return 0
	case VerdictBindError:
		return 2
	case VerdictParseError:
		return 3
	default:
		return 1
	}
}

// Bind resolves every name in stmt against db's schema without touching a
// single row: each FROM table must exist, and every column reference —
// select items, WHERE operands (recursing into subqueries), GROUP BY,
// ORDER BY — must resolve in the FROM tables' combined column set, under
// the same permissive unqualified-name rule Execute uses. A nil error
// means Execute cannot fail on name resolution.
func Bind(db *Database, stmt *SelectStmt) error {
	rel := &relation{}
	for _, name := range stmt.From {
		t, ok := db.Table(name)
		if !ok {
			return fmt.Errorf("sqlengine: unknown table %s", name)
		}
		for _, c := range t.Cols {
			rel.cols = append(rel.cols, boundCol{table: t.Name, name: c.Name, typ: c.Type})
		}
	}
	if len(stmt.From) == 0 {
		return fmt.Errorf("sqlengine: no tables")
	}
	if !stmt.Star {
		for _, it := range stmt.Items {
			if it.Star {
				continue // COUNT(*)
			}
			if _, err := rel.resolve(it.Col); err != nil {
				return err
			}
		}
	}
	if err := bindBool(db, rel, stmt.Where); err != nil {
		return err
	}
	if stmt.GroupBy != nil {
		if _, err := rel.resolve(*stmt.GroupBy); err != nil {
			return err
		}
	}
	if stmt.OrderBy != nil {
		if _, err := rel.resolve(*stmt.OrderBy); err != nil {
			return err
		}
	}
	return nil
}

func bindBool(db *Database, rel *relation, n *BoolNode) error {
	if n == nil {
		return nil
	}
	if n.Pred != nil {
		return bindPred(db, rel, n.Pred)
	}
	if err := bindBool(db, rel, n.Left); err != nil {
		return err
	}
	return bindBool(db, rel, n.Right)
}

func bindPred(db *Database, rel *relation, p *Predicate) error {
	for _, o := range []Operand{p.Left, p.Right} {
		if o.Col != nil {
			if _, err := rel.resolve(*o.Col); err != nil {
				return err
			}
		}
		if o.Sub != nil {
			if err := Bind(db, o.Sub); err != nil {
				return err
			}
		}
	}
	if p.Sub != nil {
		return Bind(db, p.Sub)
	}
	return nil
}

// DryRun classifies one candidate SQL string against db's schema:
// parse_error when it does not parse, bind_error when a table or column
// does not resolve, ok otherwise.
func DryRun(db *Database, sql string) Verdict {
	stmt, err := Parse(sql)
	if err != nil {
		return VerdictParseError
	}
	if err := Bind(db, stmt); err != nil {
		return VerdictBindError
	}
	return VerdictOK
}

// NewSchemaDatabase builds a rowless bind-only database from flat name
// lists — the strongest schema a registry tenant's catalog can support,
// since catalogs record table and attribute membership but not which
// attribute belongs to which table. Every table therefore carries every
// attribute: Bind against the result checks exactly that each referenced
// table is a known table and each referenced attribute a known attribute.
func NewSchemaDatabase(name string, tables, attrs []string) *Database {
	db := NewDatabase(name)
	cols := make([]Column, len(attrs))
	for i, a := range attrs {
		cols[i] = Column{Name: a, Type: StringCol}
	}
	for _, t := range tables {
		if _, dup := db.Table(t); dup {
			continue
		}
		db.CreateTable(t, cols...)
	}
	return db
}
