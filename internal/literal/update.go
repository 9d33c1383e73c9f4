package literal

// update.go implements incremental catalog updates for the multi-tenant
// registry: a tenant's schema drifts (a table added, a column's domain
// extended) and the registry rebuilds only the category sets a delta
// touches instead of the whole catalog. Within a touched set, retained
// entries keep their cached Lower/Phonetic encodings and only added names
// are Metaphone-encoded; the set's maps, groups and members are rebuilt,
// and its BK-tree is shared (no new code), grown (codes only added) or
// rebuilt (a code vanished). A fresh set is the same merge applied to an
// empty set (buildSet), so there is one builder.
//
// ApplyDelta is copy-on-write: it returns a NEW catalog sharing every
// untouched category set (and the BK-tree arenas of touched sets when
// possible) with the receiver, which therefore stays valid for concurrent
// readers — exactly the frozen-arena discipline the registry's eviction
// protocol depends on (an in-flight correction holding the old catalog is
// never invalidated by an update).

import (
	"sort"
	"strings"

	"speakql/internal/phonetic"
)

// CatalogDelta describes one incremental catalog update. Adds and removes
// are by exact name (the same identity NewCatalog deduplicates on);
// removing an absent name or re-adding a present one is a no-op. Column
// maps are keyed by attribute name, case-insensitive like WithColumnValues.
type CatalogDelta struct {
	AddTables     []string `json:"add_tables,omitempty"`
	RemoveTables  []string `json:"remove_tables,omitempty"`
	AddAttributes []string `json:"add_attributes,omitempty"`
	RemoveAttrs   []string `json:"remove_attributes,omitempty"`
	AddValues     []string `json:"add_values,omitempty"`
	RemoveValues  []string `json:"remove_values,omitempty"`

	AddColumnValues    map[string][]string `json:"add_column_values,omitempty"`
	RemoveColumnValues map[string][]string `json:"remove_column_values,omitempty"`
}

// Empty reports whether the delta changes nothing.
func (d CatalogDelta) Empty() bool {
	return len(d.AddTables) == 0 && len(d.RemoveTables) == 0 &&
		len(d.AddAttributes) == 0 && len(d.RemoveAttrs) == 0 &&
		len(d.AddValues) == 0 && len(d.RemoveValues) == 0 &&
		len(d.AddColumnValues) == 0 && len(d.RemoveColumnValues) == 0
}

// UpdateStats reports how much work ApplyDelta actually did — the registry
// surfaces it so operators can verify updates stay incremental.
type UpdateStats struct {
	// Added and Removed count entries that entered or left the catalog.
	// Only added entries are Metaphone-encoded; retained entries reuse their
	// cached encodings.
	Added   int `json:"added"`
	Removed int `json:"removed"`
	// BKReused counts category sets whose BK-tree was shared verbatim (no
	// new distinct codes); BKInserted counts new codes inserted into copied
	// trees; BKRebuilt counts sets that lost a code and needed a full
	// rebuild.
	BKReused   int `json:"bk_reused"`
	BKInserted int `json:"bk_inserted"`
	BKRebuilt  int `json:"bk_rebuilt"`
}

// ApplyDelta applies d and returns a new catalog; the receiver is not
// modified and stays valid. Untouched category sets are shared between old
// and new catalog. Rankings produced by the result are bit-identical to a
// full NewCatalog rebuild over the same final name lists (voting depends
// only on the entry population, not on group order or BK-tree shape).
func (c *Catalog) ApplyDelta(d CatalogDelta) (*Catalog, UpdateStats) {
	out := &Catalog{
		tables: c.tables,
		attrs:  c.attrs,
		values: c.values,
		byAttr: c.byAttr,
	}
	var st UpdateStats
	if len(d.AddTables)+len(d.RemoveTables) > 0 {
		out.tables = applySetDelta(&c.tables, d.AddTables, d.RemoveTables, &st)
	}
	if len(d.AddAttributes)+len(d.RemoveAttrs) > 0 {
		out.attrs = applySetDelta(&c.attrs, d.AddAttributes, d.RemoveAttrs, &st)
	}
	if len(d.AddValues)+len(d.RemoveValues) > 0 {
		out.values = applySetDelta(&c.values, d.AddValues, d.RemoveValues, &st)
	}
	if len(d.AddColumnValues)+len(d.RemoveColumnValues) > 0 {
		out.byAttr = applyColumnDeltas(c.byAttr, d, &st)
	}
	return out, st
}

// applyColumnDeltas rebuilds only the touched columns' sets, sharing the
// rest; the map itself is copied (the old catalog keeps its own view).
func applyColumnDeltas(old map[string]*catSet, d CatalogDelta, st *UpdateStats) map[string]*catSet {
	out := make(map[string]*catSet, len(old)+len(d.AddColumnValues))
	for k, v := range old {
		out[k] = v
	}
	touched := make(map[string]bool, len(d.AddColumnValues)+len(d.RemoveColumnValues))
	for attr := range d.AddColumnValues {
		touched[strings.ToLower(attr)] = true
	}
	for attr := range d.RemoveColumnValues {
		touched[strings.ToLower(attr)] = true
	}
	for key := range touched {
		prev := out[key]
		if prev == nil {
			prev = &catSet{}
		}
		ns := applySetDelta(prev, columnNames(d.AddColumnValues, key),
			columnNames(d.RemoveColumnValues, key), st)
		if len(ns.entries) == 0 {
			delete(out, key)
			continue
		}
		out[key] = &ns
	}
	return out
}

// columnNames collects m's values for the (lowercased) attribute key —
// delta maps are caller-supplied, so two differently-cased keys may name
// the same column.
func columnNames(m map[string][]string, key string) []string {
	var out []string
	for attr, vals := range m {
		if strings.ToLower(attr) == key {
			out = append(out, vals...)
		}
	}
	return out
}

// applySetDelta produces the updated category set; buildSet calls it on an
// empty set. Retained entries reuse their cached encodings; only added
// names are Metaphone-encoded. The group list keeps the old set's group
// order for surviving codes (so tree node i still covers group i) and
// appends genuinely new codes sorted, which for a fresh set is every code
// in sorted order. The BK-tree is one insert loop over an arena that is
// shared when no code is new, copied when codes were only added, and empty
// when a code vanished: dropping a group would shift group indices, and
// keeping an empty group is forbidden — an empty group winning a
// nearest-radius search would contribute zero votes and diverge from the
// naive reference.
func applySetDelta(old *catSet, add, remove []string, st *UpdateStats) catSet {
	rm := make(map[string]bool, len(remove))
	for _, n := range remove {
		if n != "" {
			rm[n] = true
		}
	}
	have := make(map[string]bool, len(old.entries)+len(add))
	removed := 0
	for _, e := range old.entries {
		if rm[e.Name] {
			removed++
			continue
		}
		have[e.Name] = true
	}
	added := make([]entry, 0, len(add))
	for _, n := range add {
		if n == "" || have[n] {
			continue
		}
		have[n] = true
		added = append(added, entry{
			Name:     n,
			Lower:    strings.ToLower(n),
			Phonetic: phonetic.Encode(n),
		})
	}
	sort.Slice(added, func(i, j int) bool { return added[i].Name < added[j].Name })
	st.Added += len(added)
	st.Removed += removed

	// Sorted merge of retained + added entries: both inputs are in Name
	// order, so the result is too, with no re-sort and no re-encoding.
	entries := make([]entry, 0, len(old.entries)-removed+len(added))
	i, j := 0, 0
	for i < len(old.entries) || j < len(added) {
		switch {
		case i < len(old.entries) && rm[old.entries[i].Name]:
			i++
		case j == len(added) || (i < len(old.entries) && old.entries[i].Name < added[j].Name):
			entries = append(entries, old.entries[i])
			i++
		default:
			entries = append(entries, added[j])
			j++
		}
	}

	set := catSet{entries: entries, byLower: make(map[string]int32, len(entries))}
	counts := make(map[string]int32, len(old.groups)+len(added))
	for idx, e := range entries {
		if _, ok := set.byLower[e.Lower]; !ok {
			// First entry (in Name order) wins, matching what a linear
			// EqualFold scan over the sorted slice would return.
			set.byLower[e.Lower] = int32(idx)
		}
		counts[e.Phonetic]++
		if len(e.Phonetic) > set.maxCode {
			set.maxCode = len(e.Phonetic)
		}
	}

	// Group order: surviving codes keep their old positions, new codes are
	// appended sorted. Search never requires globally-sorted groups; the
	// sorted order of a fresh set only makes its tree shape canonical. Each
	// group's slice of the members arena is laid out from the counts, then
	// filled in entry order.
	set.groups = make([]phoneGroup, 0, len(counts))
	set.byCode = make(map[string]int32, len(counts))
	next := int32(0)
	group := func(code string) {
		set.byCode[code] = int32(len(set.groups))
		set.groups = append(set.groups, phoneGroup{code: code, first: next})
		next += counts[code]
	}
	codeGone := false
	for _, g := range old.groups {
		if counts[g.code] == 0 {
			codeGone = true
			continue
		}
		group(g.code)
	}
	newCodes := make([]string, 0, len(counts)-len(set.groups))
	for code := range counts {
		if _, ok := set.byCode[code]; !ok {
			newCodes = append(newCodes, code)
		}
	}
	sort.Strings(newCodes)
	for _, code := range newCodes {
		group(code)
	}
	set.members = make([]int32, len(entries))
	for idx, e := range entries {
		g := &set.groups[set.byCode[e.Phonetic]]
		set.members[g.first+g.num] = int32(idx)
		g.num++
	}

	// Group gi is node gi of the tree, so the groups not yet in it are
	// those from len(set.bk) on. A shared tree is never written: its nodes
	// still cover their groups, and BK-trees are immutable once built.
	switch {
	case codeGone:
		set.bk = make([]bkNode, 0, len(set.groups))
		st.BKRebuilt++
	case len(newCodes) == 0:
		set.bk = old.bk
		st.BKReused++
	default:
		set.bk = append(make([]bkNode, 0, len(set.groups)), old.bk...)
		st.BKInserted += len(newCodes)
	}
	for len(set.bk) < len(set.groups) {
		set.bk = bkInsert(set.bk, set.groups)
	}
	return set
}
