// Package literal implements the Literal Determination component of
// Section 4 (Box 3): it fills the placeholder variables of a determined SQL
// structure with actual literals. Table and attribute names come from a
// phonetic (Metaphone) index of the queried database's catalog; attribute
// values use phonetic voting for strings and dedicated reassembly for
// numbers and dates, which ASR splits and mangles (Table 1). The voting
// algorithm follows Appendix E: every enumerated transcript substring votes
// for its phonetically-closest catalog literal, and the literal with the
// most votes wins, ties resolved lexicographically.
//
// Voting is served by a phonetic index built at catalog-construction time:
// entries collapse into groups by identical Metaphone code, and each
// category set carries a BK-tree over the distinct codes, so a candidate
// substring finds its nearest entries by triangle-inequality radius search
// instead of scanning the whole set (see DESIGN.md §8). The tests keep the
// pre-index full scan as the differential reference; rankings are
// bit-identical to it.
package literal

import "strings"

// entry is one catalog literal with its cached phonetic encoding and its
// lowercased spelling (raw-distance tie-breaks and exact-match probes both
// need the lowered form; caching it keeps the hot loop allocation-free).
type entry struct {
	Name     string
	Lower    string
	Phonetic string
}

// phoneGroup is one distinct Metaphone code and the slice [first, first+num)
// of catSet.members holding the indices of every entry that encodes to it.
// Many catalog values collapse to one code ("Jon"/"John" → JN), so the
// BK-tree searches groups, not entries. A group with num 0 is a tombstone
// (update.go).
type phoneGroup struct {
	code       string
	first, num int32
}

// catSet is one category's literal set — tables, attributes, the global
// value set, or one column's domain — with its exact-match map and phonetic
// BK-tree index.
type catSet struct {
	entries []entry          // sorted by Name, deduplicated
	byLower map[string]int32 // lowered name → index of first entry spelling it
	groups  []phoneGroup     // distinct phonetic codes, dead ones included;
	// sorted by code in a fresh set, and a delta appends new codes
	members []int32          // entry indices, grouped per groups[i]
	bk      []bkNode         // BK-tree over groups; nil when the set is empty
	byCode  map[string]int32 // phonetic code → its group index, dead groups
	// included (exact-hit fast path: a candidate encoding equal to a live
	// code makes that group the unique distance-0 winner, skipping the BK
	// radius search entirely)
	maxCode int // at least the longest live code's length (an upper bound
	// seed for nearest-code search: dist(a,b) ≤ max(len(a), len(b)))
	dead int // groups with no member left: tombstones whose node still
	// routes the BK search but never wins it (update.go)
}

// Catalog is the phonetic representation of a database's literals
// (Figure 2's "Database Metadata"): table names, attribute names, and
// string attribute values, each indexed by Metaphone encoding. Numbers and
// dates are deliberately excluded (Section 4's design: "only strings,
// excluding numbers or dates"); those are reassembled from the transcript.
type Catalog struct {
	tables catSet
	attrs  catSet
	values catSet
	// byAttr holds per-attribute value sets (lowercased attribute name →
	// its column's string values). Optional: when present, value voting for
	// a predicate whose attribute is already bound is restricted to that
	// column's domain — a documented extension beyond the paper's global
	// per-category sets (its future work singles literals out as the
	// accuracy bottleneck).
	byAttr map[string]*catSet
}

// NewCatalog builds the phonetic catalog. Duplicate names are collapsed.
func NewCatalog(tables, attrs, values []string) *Catalog {
	return &Catalog{
		tables: buildSet(tables),
		attrs:  buildSet(attrs),
		values: buildSet(values),
	}
}

// WithColumnValues attaches per-attribute value domains, enabling
// column-aware value voting. Keys are attribute names, matched without
// case: keys differing only in case name one column, and their lists merge
// (as ApplyDelta merges them). The global value set remains the fallback
// for unbound or unknown attributes. Returns the catalog for chaining.
func (c *Catalog) WithColumnValues(byAttr map[string][]string) *Catalog {
	merged := make(map[string][]string, len(byAttr))
	for attr, vals := range byAttr {
		key := strings.ToLower(attr)
		merged[key] = append(merged[key], vals...)
	}
	c.byAttr = make(map[string]*catSet, len(merged))
	for attr, vals := range merged {
		set := buildSet(vals)
		c.byAttr[attr] = &set
	}
	return c
}

// columnValues returns the value set for one attribute, ok=false when no
// per-column domain is attached.
func (c *Catalog) columnValues(attr string) (*catSet, bool) {
	if c.byAttr == nil {
		return nil, false
	}
	es, ok := c.byAttr[strings.ToLower(attr)]
	if !ok || len(es.entries) == 0 {
		return nil, false
	}
	return es, true
}

// buildSet indexes a fresh category set: it is the delta that adds every
// name to an empty set, so applySetDelta (update.go) is the one place a set
// is grouped and its BK-tree grown, whether NewCatalog, WithColumnValues, a
// tenant reload, a PATCH or a compaction asks. A fresh set holds no
// tombstone.
func buildSet(names []string) catSet {
	return updateSet(&catSet{}, names, nil, new(UpdateStats))
}

// Tables returns the table names in the catalog.
func (c *Catalog) Tables() []string { return names(c.tables.entries) }

// Attributes returns the attribute names in the catalog.
func (c *Catalog) Attributes() []string { return names(c.attrs.entries) }

// Values returns the indexed string attribute values.
func (c *Catalog) Values() []string { return names(c.values.entries) }

// Sizes returns how many tables, attributes and values the catalog holds,
// without copying the name lists Tables, Attributes and Values return.
func (c *Catalog) Sizes() (tables, attributes, values int) {
	return len(c.tables.entries), len(c.attrs.entries), len(c.values.entries)
}

// ColumnValues returns the per-attribute value domains, keyed by lowercased
// attribute name; WithColumnValues over the result rebuilds them.
func (c *Catalog) ColumnValues() map[string][]string {
	out := make(map[string][]string, len(c.byAttr))
	for attr, set := range c.byAttr {
		out[attr] = names(set.entries)
	}
	return out
}

func names(es []entry) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name
	}
	return out
}

// HasTable reports whether name matches a table exactly (case-insensitive).
// O(1): probes the lowered-name set built in NewCatalog.
func (c *Catalog) HasTable(name string) bool { return hasExact(&c.tables, name) }

// HasAttribute reports whether name matches an attribute exactly.
func (c *Catalog) HasAttribute(name string) bool { return hasExact(&c.attrs, name) }

func hasExact(set *catSet, name string) bool {
	_, ok := set.byLower[strings.ToLower(name)]
	return ok
}
