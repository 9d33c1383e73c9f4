package sqlengine

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Result is a query result set.
type Result struct {
	Cols []string
	Rows [][]Value
	// Ordered records whether row order is semantically meaningful
	// (ORDER BY was present), which result comparison honours.
	Ordered bool
}

// maxJoinRows caps intermediate join sizes; generated queries over synthetic
// data stay far below it, and hitting it indicates a runaway cross product.
const maxJoinRows = 2_000_000

// Execute runs a parsed statement against the database.
func Execute(db *Database, stmt *SelectStmt) (*Result, error) {
	return execute(db, stmt, &budget{ctx: context.Background()})
}

// budgetCheckRows is how many charged rows pass between checks of the
// caller's context.
const budgetCheckRows = 1024

// budget is one run's state. It bounds the run by its caller's context: it
// is charged a row for every row materialized (base-table scans and join
// outputs), for every row a WHERE clause tests, and for every value an IN
// predicate scans, and polls the context every budgetCheckRows rows, so a
// runaway query stops soon after its deadline. It also holds each
// subquery's result, so a subquery runs once per run. All state lives here,
// never in the Database, so a stopped run leaves no trace.
type budget struct {
	ctx  context.Context
	rows int64
	subs map[*SelectStmt]*Result
}

// charge consumes n rows and reports the context's error, wrapped, once a
// check finds it done.
func (b *budget) charge(n int) error {
	prev := b.rows
	b.rows += int64(n)
	if prev/budgetCheckRows == b.rows/budgetCheckRows {
		return nil
	}
	if err := b.ctx.Err(); err != nil {
		return fmt.Errorf("sqlengine: execution stopped after %d rows: %w", b.rows, err)
	}
	return nil
}

// subquery returns sub's result, running it on first use only: a subquery
// binds only its own FROM list, so its result cannot depend on the outer
// row.
func (b *budget) subquery(db *Database, sub *SelectStmt) (*Result, error) {
	if res, ok := b.subs[sub]; ok {
		return res, nil
	}
	res, err := execute(db, sub, b)
	if err != nil {
		return nil, err
	}
	if b.subs == nil {
		b.subs = make(map[*SelectStmt]*Result)
	}
	b.subs[sub] = res
	return res, nil
}

func execute(db *Database, stmt *SelectStmt, bud *budget) (*Result, error) {
	rel, err := buildFrom(db, stmt, bud)
	if err != nil {
		return nil, err
	}
	if stmt.Where != nil {
		filtered := rel.rows[:0:0]
		for _, row := range rel.rows {
			if err := bud.charge(1); err != nil {
				return nil, err
			}
			ok, err := evalBool(db, rel, row, stmt.Where, bud)
			if err != nil {
				return nil, err
			}
			if ok {
				filtered = append(filtered, row)
			}
		}
		rel.rows = filtered
	}

	var res *Result
	switch {
	case stmt.GroupBy != nil:
		res, err = execGrouped(rel, stmt)
	case stmt.HasAggregate():
		res, err = execAggregate(rel, stmt)
	default:
		res, err = execProject(rel, stmt)
	}
	if err != nil {
		return nil, err
	}
	if stmt.Limit >= 0 && len(res.Rows) > stmt.Limit {
		res.Rows = res.Rows[:stmt.Limit]
	}
	return res, nil
}

// Run parses and executes sql in one step.
func Run(db *Database, sql string) (*Result, error) {
	return RunContext(context.Background(), db, sql)
}

// RunContext is Run under ctx: once ctx is done the run stops within
// budgetCheckRows materialized rows, with an error that wraps ctx.Err()
// (errors.Is(err, context.DeadlineExceeded) after a deadline).
func RunContext(ctx context.Context, db *Database, sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return execute(db, stmt, &budget{ctx: ctx})
}

// relation is an intermediate working set with a bound schema.
type relation struct {
	cols []boundCol
	rows [][]Value
}

type boundCol struct {
	table string
	name  string
	typ   ColType
}

// resolve finds the index of a column reference; unqualified names match
// the first table that has them (the permissive choice SpeakQL's loosely
// disambiguated queries need).
func (r *relation) resolve(c ColRef) (int, error) {
	for i, bc := range r.cols {
		if !strings.EqualFold(bc.name, c.Column) {
			continue
		}
		if c.Table == "" || strings.EqualFold(bc.table, c.Table) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sqlengine: unknown column %s", c.String())
}

// buildFrom assembles the FROM relation: NATURAL JOIN chains hash-join on
// shared column names; comma lists use extracted equi-join predicates where
// possible and fall back to cross products.
func buildFrom(db *Database, stmt *SelectStmt, bud *budget) (*relation, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("sqlengine: no tables")
	}
	base, err := tableRelation(db, stmt.From[0], bud)
	if err != nil {
		return nil, err
	}
	for _, name := range stmt.From[1:] {
		next, err := tableRelation(db, name, bud)
		if err != nil {
			return nil, err
		}
		if stmt.NaturalJoin {
			base, err = naturalJoin(base, next, bud)
		} else {
			base, err = equiOrCrossJoin(base, next, stmt.Where, bud)
		}
		if err != nil {
			return nil, err
		}
	}
	return base, nil
}

func tableRelation(db *Database, name string, bud *budget) (*relation, error) {
	t, ok := db.Table(name)
	if !ok {
		return nil, fmt.Errorf("sqlengine: unknown table %s", name)
	}
	if err := bud.charge(len(t.Rows)); err != nil {
		return nil, err
	}
	rel := &relation{cols: make([]boundCol, len(t.Cols)), rows: t.Rows}
	for i, c := range t.Cols {
		rel.cols[i] = boundCol{table: t.Name, name: c.Name, typ: c.Type}
	}
	return rel, nil
}

// naturalJoin hash-joins two relations on all shared column names,
// projecting the shared columns once (left side), per SQL NATURAL JOIN.
func naturalJoin(a, b *relation, bud *budget) (*relation, error) {
	var aIdx, bIdx []int
	for i, ac := range a.cols {
		for j, bc := range b.cols {
			if strings.EqualFold(ac.name, bc.name) {
				aIdx = append(aIdx, i)
				bIdx = append(bIdx, j)
			}
		}
	}
	if len(aIdx) == 0 {
		return crossJoin(a, b, bud)
	}
	keep := make([]int, 0, len(b.cols))
	shared := make(map[int]bool, len(bIdx))
	for _, j := range bIdx {
		shared[j] = true
	}
	for j := range b.cols {
		if !shared[j] {
			keep = append(keep, j)
		}
	}
	out := &relation{cols: append([]boundCol{}, a.cols...)}
	for _, j := range keep {
		out.cols = append(out.cols, b.cols[j])
	}
	// Hash the smaller side.
	index := make(map[string][][]Value)
	for _, brow := range b.rows {
		index[joinKey(brow, bIdx)] = append(index[joinKey(brow, bIdx)], brow)
	}
	for _, arow := range a.rows {
		for _, brow := range index[joinKey(arow, aIdx)] {
			if err := bud.charge(1); err != nil {
				return nil, err
			}
			row := append(append([]Value{}, arow...), pick(brow, keep)...)
			out.rows = append(out.rows, row)
			if len(out.rows) > maxJoinRows {
				return nil, fmt.Errorf("sqlengine: join result exceeds %d rows", maxJoinRows)
			}
		}
	}
	return out, nil
}

// equiOrCrossJoin joins a comma-listed table using any Table.Col = Table.Col
// equality found in the WHERE tree, else a cross product.
func equiOrCrossJoin(a, b *relation, where *BoolNode, bud *budget) (*relation, error) {
	var aIdx, bIdx []int
	collectEquiPairs(where, func(l, r ColRef) {
		li, lerr := a.resolve(l)
		ri, rerr := b.resolve(r)
		if lerr == nil && rerr == nil {
			aIdx = append(aIdx, li)
			bIdx = append(bIdx, ri)
			return
		}
		li, lerr = a.resolve(r)
		ri, rerr = b.resolve(l)
		if lerr == nil && rerr == nil {
			aIdx = append(aIdx, li)
			bIdx = append(bIdx, ri)
		}
	})
	if len(aIdx) == 0 {
		return crossJoin(a, b, bud)
	}
	out := &relation{cols: append(append([]boundCol{}, a.cols...), b.cols...)}
	index := make(map[string][][]Value)
	for _, brow := range b.rows {
		index[joinKey(brow, bIdx)] = append(index[joinKey(brow, bIdx)], brow)
	}
	for _, arow := range a.rows {
		for _, brow := range index[joinKey(arow, aIdx)] {
			if err := bud.charge(1); err != nil {
				return nil, err
			}
			out.rows = append(out.rows, append(append([]Value{}, arow...), brow...))
			if len(out.rows) > maxJoinRows {
				return nil, fmt.Errorf("sqlengine: join result exceeds %d rows", maxJoinRows)
			}
		}
	}
	return out, nil
}

// collectEquiPairs walks the AND-reachable predicates of a WHERE tree and
// reports column=column equalities. OR branches are skipped: their
// equalities do not constrain the whole result.
func collectEquiPairs(n *BoolNode, f func(l, r ColRef)) {
	if n == nil {
		return
	}
	if n.Pred != nil {
		p := n.Pred
		if p.Kind == predCompare && p.Op == "=" && p.Left.Col != nil && p.Right.Col != nil {
			f(*p.Left.Col, *p.Right.Col)
		}
		return
	}
	if n.Op == "AND" {
		collectEquiPairs(n.Left, f)
		collectEquiPairs(n.Right, f)
	}
}

func crossJoin(a, b *relation, bud *budget) (*relation, error) {
	if len(a.rows)*len(b.rows) > maxJoinRows {
		return nil, fmt.Errorf("sqlengine: cross product of %d×%d rows refused",
			len(a.rows), len(b.rows))
	}
	out := &relation{cols: append(append([]boundCol{}, a.cols...), b.cols...)}
	for _, ar := range a.rows {
		if err := bud.charge(len(b.rows)); err != nil {
			return nil, err
		}
		for _, br := range b.rows {
			out.rows = append(out.rows, append(append([]Value{}, ar...), br...))
		}
	}
	return out, nil
}

func joinKey(row []Value, idx []int) string {
	var b strings.Builder
	for _, i := range idx {
		b.WriteString(strings.ToLower(row[i].String()))
		b.WriteByte(0)
	}
	return b.String()
}

func pick(row []Value, idx []int) []Value {
	out := make([]Value, len(idx))
	for i, j := range idx {
		out[i] = row[j]
	}
	return out
}

// evalBool evaluates a WHERE tree on one row.
func evalBool(db *Database, rel *relation, row []Value, n *BoolNode, bud *budget) (bool, error) {
	if n.Pred != nil {
		return evalPred(db, rel, row, n.Pred, bud)
	}
	l, err := evalBool(db, rel, row, n.Left, bud)
	if err != nil {
		return false, err
	}
	if n.Op == "AND" && !l {
		return false, nil
	}
	if n.Op == "OR" && l {
		return true, nil
	}
	return evalBool(db, rel, row, n.Right, bud)
}

func evalPred(db *Database, rel *relation, row []Value, p *Predicate, bud *budget) (bool, error) {
	switch p.Kind {
	case predCompare:
		lv, err := operandValue(db, rel, row, p.Left, bud)
		if err != nil {
			return false, err
		}
		rv, err := operandValue(db, rel, row, p.Right, bud)
		if err != nil {
			return false, err
		}
		cmp := Compare(lv, rv)
		switch p.Op {
		case "=":
			return cmp == 0, nil
		case "<":
			return cmp < 0, nil
		default:
			return cmp > 0, nil
		}
	case predBetween:
		lv, err := operandValue(db, rel, row, p.Left, bud)
		if err != nil {
			return false, err
		}
		in := Compare(lv, p.Lo) >= 0 && Compare(lv, p.Hi) <= 0
		return in != p.Not, nil
	default: // predIn
		lv, err := operandValue(db, rel, row, p.Left, bud)
		if err != nil {
			return false, err
		}
		if p.Sub != nil {
			sub, err := bud.subquery(db, p.Sub)
			if err != nil {
				return false, err
			}
			if err := bud.charge(len(sub.Rows)); err != nil {
				return false, err
			}
			for _, r := range sub.Rows {
				if len(r) > 0 && Equal(lv, r[0]) {
					return true, nil
				}
			}
			return false, nil
		}
		if err := bud.charge(len(p.Vals)); err != nil {
			return false, err
		}
		for _, v := range p.Vals {
			if Equal(lv, v) {
				return true, nil
			}
		}
		return false, nil
	}
}

func operandValue(db *Database, rel *relation, row []Value, o Operand, bud *budget) (Value, error) {
	switch {
	case o.Col != nil:
		i, err := rel.resolve(*o.Col)
		if err != nil {
			return Null(), err
		}
		return row[i], nil
	case o.Sub != nil:
		sub, err := bud.subquery(db, o.Sub)
		if err != nil {
			return Null(), err
		}
		if len(sub.Rows) == 0 || len(sub.Rows[0]) == 0 {
			return Null(), nil
		}
		return sub.Rows[0][0], nil
	case o.Val != nil:
		return *o.Val, nil
	default:
		return Null(), fmt.Errorf("sqlengine: empty operand")
	}
}

// execProject handles non-aggregated queries: optional pre-projection sort,
// then projection.
func execProject(rel *relation, stmt *SelectStmt) (*Result, error) {
	if stmt.OrderBy != nil {
		i, err := rel.resolve(*stmt.OrderBy)
		if err != nil {
			return nil, err
		}
		rows := append([][]Value{}, rel.rows...)
		sort.SliceStable(rows, func(x, y int) bool {
			c := Compare(rows[x][i], rows[y][i])
			if stmt.OrderDesc {
				return c > 0
			}
			return c < 0
		})
		rel = &relation{cols: rel.cols, rows: rows}
	}
	res := &Result{Ordered: stmt.OrderBy != nil}
	if stmt.Star {
		for _, c := range rel.cols {
			res.Cols = append(res.Cols, c.name)
		}
		res.Rows = append(res.Rows, rel.rows...)
		return res, nil
	}
	idx := make([]int, len(stmt.Items))
	for k, it := range stmt.Items {
		i, err := rel.resolve(it.Col)
		if err != nil {
			return nil, err
		}
		idx[k] = i
		res.Cols = append(res.Cols, it.Col.Column)
	}
	for _, row := range rel.rows {
		res.Rows = append(res.Rows, pick(row, idx))
	}
	return res, nil
}

// execAggregate handles aggregate queries without GROUP BY: one output row.
func execAggregate(rel *relation, stmt *SelectStmt) (*Result, error) {
	res := &Result{}
	row := make([]Value, len(stmt.Items))
	for k, it := range stmt.Items {
		res.Cols = append(res.Cols, it.String())
		v, err := aggValue(rel, rel.rows, it)
		if err != nil {
			return nil, err
		}
		row[k] = v
	}
	res.Rows = [][]Value{row}
	return res, nil
}

// execGrouped handles GROUP BY queries.
func execGrouped(rel *relation, stmt *SelectStmt) (*Result, error) {
	gi, err := rel.resolve(*stmt.GroupBy)
	if err != nil {
		return nil, err
	}
	groups := make(map[string][][]Value)
	var order []string
	for _, row := range rel.rows {
		key := strings.ToLower(row[gi].String())
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], row)
	}
	sort.Strings(order)
	res := &Result{}
	for _, it := range stmt.Items {
		res.Cols = append(res.Cols, it.String())
	}
	if stmt.Star {
		return nil, fmt.Errorf("sqlengine: SELECT * with GROUP BY unsupported")
	}
	for _, key := range order {
		rows := groups[key]
		out := make([]Value, len(stmt.Items))
		for k, it := range stmt.Items {
			if it.Agg == "" {
				i, err := rel.resolve(it.Col)
				if err != nil {
					return nil, err
				}
				out[k] = rows[0][i]
				continue
			}
			v, err := aggValue(rel, rows, it)
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

func aggValue(rel *relation, rows [][]Value, it SelectItem) (Value, error) {
	if it.Agg == "" {
		i, err := rel.resolve(it.Col)
		if err != nil {
			return Null(), err
		}
		if len(rows) == 0 {
			return Null(), nil
		}
		return rows[0][i], nil
	}
	if it.Agg == "COUNT" {
		if it.Star {
			return Int(int64(len(rows))), nil
		}
		i, err := rel.resolve(it.Col)
		if err != nil {
			return Null(), err
		}
		n := 0
		for _, r := range rows {
			if !r[i].IsNull() {
				n++
			}
		}
		return Int(int64(n)), nil
	}
	i, err := rel.resolve(it.Col)
	if err != nil {
		return Null(), err
	}
	var sum float64
	var cnt int
	var best Value
	for _, r := range rows {
		v := r[i]
		if v.IsNull() {
			continue
		}
		if f, ok := v.numeric(); ok {
			sum += f
		}
		switch it.Agg {
		case "MAX":
			if cnt == 0 || Compare(v, best) > 0 {
				best = v
			}
		case "MIN":
			if cnt == 0 || Compare(v, best) < 0 {
				best = v
			}
		}
		cnt++
	}
	if cnt == 0 {
		return Null(), nil
	}
	switch it.Agg {
	case "AVG":
		return Float(sum / float64(cnt)), nil
	case "SUM":
		if sum == float64(int64(sum)) {
			return Int(int64(sum)), nil
		}
		return Float(sum), nil
	default: // MAX / MIN
		return best, nil
	}
}

// EqualResults compares two result sets for execution-accuracy scoring:
// ordered comparison when either carries ORDER BY semantics, multiset
// comparison otherwise. Column names are ignored (SpeakQL may label an
// aggregate differently); shapes and values must match.
func EqualResults(a, b *Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	if len(a.Rows) == 0 {
		return len(a.Cols) == len(b.Cols)
	}
	if len(a.Rows[0]) != len(b.Rows[0]) {
		return false
	}
	keyOf := func(row []Value) string {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = strings.ToLower(v.String())
		}
		return strings.Join(parts, "\x00")
	}
	if a.Ordered && b.Ordered {
		for i := range a.Rows {
			if keyOf(a.Rows[i]) != keyOf(b.Rows[i]) {
				return false
			}
		}
		return true
	}
	counts := make(map[string]int, len(a.Rows))
	for _, r := range a.Rows {
		counts[keyOf(r)]++
	}
	for _, r := range b.Rows {
		counts[keyOf(r)]--
		if counts[keyOf(r)] < 0 {
			return false
		}
	}
	return true
}
