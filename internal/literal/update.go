package literal

// update.go implements incremental catalog updates for the multi-tenant
// registry: a tenant's schema drifts (a table added, a column's domain
// extended) and the registry rebuilds only the category sets a delta
// touches instead of the whole catalog. Within a touched set, retained
// entries keep their cached Lower/Phonetic encodings and only added names
// are Metaphone-encoded. Group indices are stable: a code that loses its
// last member stays as a tombstone group whose BK node still routes the
// search but never wins it, and re-adding the code revives it. So the
// set's BK-tree is shared (no new code) or copied and grown (a new code),
// never rebuilt by a delta; a set whose dead groups outnumber one in
// compactShare live ones is compacted, rebuilt from its live entries. A
// delta finds removed and re-added names by binary search and adjusts the
// old group counts, so it builds no map over the retained entries except
// byLower. A fresh set and a compaction are the same merge applied to an
// empty set (buildSet), so there is one builder.
//
// ApplyDelta is copy-on-write: it returns a NEW catalog sharing every
// untouched category set (and the BK-tree arenas of touched sets when
// possible) with the receiver, which therefore stays valid for concurrent
// readers — exactly the frozen-arena discipline the registry's eviction
// protocol depends on (an in-flight correction holding the old catalog is
// never invalidated by an update).

import (
	"maps"
	"slices"
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
	// new distinct code; codes that lost their last member stay in it as
	// tombstones); BKInserted counts new codes inserted into copied trees;
	// BKRebuilt counts compactions: sets rebuilt from their live entries
	// because dead codes passed one in compactShare live ones, which also
	// empties a set whose last entry left.
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
		out.tables = updateSet(&c.tables, d.AddTables, d.RemoveTables, &st)
	}
	if len(d.AddAttributes)+len(d.RemoveAttrs) > 0 {
		out.attrs = updateSet(&c.attrs, d.AddAttributes, d.RemoveAttrs, &st)
	}
	if len(d.AddValues)+len(d.RemoveValues) > 0 {
		out.values = updateSet(&c.values, d.AddValues, d.RemoveValues, &st)
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
		ns := updateSet(prev, columnNames(d.AddColumnValues, key),
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

// compactShare bounds the memory a set's tombstones hold: a delta that
// leaves more than one dead group per compactShare live ones compacts the
// set.
const compactShare = 4

// updateSet applies one category's adds and removes: it encodes the added
// names and hands them to the one builder.
func updateSet(old *catSet, add, remove []string, st *UpdateStats) catSet {
	return applySetDelta(old, encodeNames(old, add), remove, st)
}

// encodeNames turns names into entries sorted by Name, blanks and repeats
// dropped. A name old already holds reuses its cached encodings, so only
// names new to the set are Metaphone-encoded.
func encodeNames(old *catSet, names []string) []entry {
	sorted := slices.Clone(names)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	out := make([]entry, 0, len(sorted))
	for _, n := range sorted {
		if n == "" {
			continue
		}
		if i, ok := old.find(n); ok {
			out = append(out, old.entries[i])
			continue
		}
		out = append(out, entry{Name: n, Lower: strings.ToLower(n), Phonetic: phonetic.Encode(n)})
	}
	return out
}

// find returns the index of the entry named name.
func (set *catSet) find(name string) (int, bool) {
	return slices.BinarySearchFunc(set.entries, name, func(e entry, n string) int {
		return strings.Compare(e.Name, n)
	})
}

// applySetDelta produces the updated category set. add holds encoded
// entries sorted by Name without repeats (encodeNames); remove holds names.
// buildSet calls it on an empty set, and so does a compaction, with the
// live entries, so it is the one place a set is grouped and its BK-tree
// grown.
//
// Group indices are stable across deltas, and group i is node i of the
// tree: surviving and dead groups keep their positions, and new codes are
// appended in sorted order (for a fresh set, every code in sorted order).
// A group that loses its last member stays as a tombstone: its node still
// routes the radius search and its code stays in byCode, but it has no
// member, so it never wins a vote (votescratch.go), and re-adding the code
// revives it. The tree and byCode are shared with old when no code is new,
// and copied and grown when one is; nothing shared with old is written.
// Once dead groups outnumber one in compactShare live ones, the set is
// rebuilt from its live entries, which drops every tombstone and leaves an
// emptied set empty.
//
// No map is built or probed per retained entry: removed and re-added names
// are found by binary search in old's Name-sorted entries, group counts are
// old's adjusted by the delta, and members is laid out from each entry's
// group index. What stays O(n) is flat work: copying entries and members,
// and rebuilding byLower.
func applySetDelta(old *catSet, add []entry, remove []string, st *UpdateStats) catSet {
	var gone []int32 // old entries the delta removes, as sorted indices
	for _, n := range remove {
		if i, ok := old.find(n); ok {
			gone = append(gone, int32(i))
		}
	}
	slices.Sort(gone)
	gone = slices.Compact(gone)
	isGone := func(i int) bool {
		_, ok := slices.BinarySearch(gone, int32(i))
		return ok
	}

	// Each added entry's group: an old one, live or dead, or newCode for a
	// code new to the set; kept marks a name the set already keeps.
	const newCode, kept = -1, -2
	addGroup := make([]int32, len(add))
	newCodes := make([]string, 0, len(add))
	added := 0
	for k, e := range add {
		if i, ok := old.find(e.Name); ok && !isGone(i) {
			addGroup[k] = kept
			continue
		}
		added++
		gi, ok := old.byCode[e.Phonetic]
		if !ok {
			gi = newCode
			newCodes = append(newCodes, e.Phonetic)
		}
		addGroup[k] = gi
	}
	slices.Sort(newCodes)
	newCodes = slices.Compact(newCodes)
	st.Added += added
	st.Removed += len(gone)

	groups := make([]phoneGroup, len(old.groups), len(old.groups)+len(newCodes))
	copy(groups, old.groups)
	for _, code := range newCodes {
		groups = append(groups, phoneGroup{code: code})
	}
	oldGroup := make([]int32, len(old.entries)) // old entry → its group
	for gi, g := range old.groups {
		for _, m := range old.members[g.first : g.first+g.num] {
			oldGroup[m] = int32(gi)
		}
	}
	dead := old.dead
	for _, i := range gone {
		g := &groups[oldGroup[i]]
		if g.num--; g.num == 0 {
			dead++
		}
	}
	maxCode := old.maxCode
	for k, e := range add {
		switch addGroup[k] {
		case kept:
			continue
		case newCode:
			j, _ := slices.BinarySearch(newCodes, e.Phonetic)
			addGroup[k] = int32(len(old.groups) + j)
		}
		g := &groups[addGroup[k]]
		if g.num == 0 && int(addGroup[k]) < len(old.groups) {
			dead-- // a tombstone revived
		}
		g.num++
		maxCode = max(maxCode, len(e.Phonetic))
	}

	// Sorted merge of retained and added entries: both inputs are in Name
	// order, so the result is too, with no re-sort and no re-encoding.
	entries := make([]entry, 0, len(old.entries)-len(gone)+added)
	groupOf := make([]int32, 0, cap(entries))
	i, j, r := 0, 0, 0
	for i < len(old.entries) || j < len(add) {
		switch {
		case r < len(gone) && int(gone[r]) == i:
			r++
			i++
		case j < len(add) && addGroup[j] == kept:
			j++
		case j == len(add) || (i < len(old.entries) && old.entries[i].Name < add[j].Name):
			entries = append(entries, old.entries[i])
			groupOf = append(groupOf, oldGroup[i])
			i++
		default:
			entries = append(entries, add[j])
			groupOf = append(groupOf, addGroup[j])
			j++
		}
	}

	if dead*compactShare > len(groups)-dead {
		st.BKRebuilt++
		return applySetDelta(&catSet{}, entries, nil, new(UpdateStats))
	}

	// Each group's slice of the members arena is laid out from the counts,
	// then filled in entry order.
	set := catSet{
		entries: entries,
		byLower: make(map[string]int32, len(entries)),
		groups:  groups,
		members: make([]int32, len(entries)),
		maxCode: maxCode,
		dead:    dead,
	}
	next := int32(0)
	for gi := range groups {
		groups[gi].first = next
		next += groups[gi].num
		groups[gi].num = 0
	}
	for idx, gi := range groupOf {
		g := &groups[gi]
		set.members[g.first+g.num] = int32(idx)
		g.num++
	}
	for idx, e := range entries {
		if _, ok := set.byLower[e.Lower]; !ok {
			// First entry (in Name order) wins, matching what a linear
			// EqualFold scan over the sorted slice would return.
			set.byLower[e.Lower] = int32(idx)
		}
	}

	// The groups not yet in the tree are those from len(set.bk) on. A
	// fresh set gets a code map of its own even when it is empty.
	set.bk, set.byCode = old.bk, old.byCode
	if len(newCodes) > 0 {
		set.bk = append(make([]bkNode, 0, len(groups)), old.bk...)
		st.BKInserted += len(newCodes)
	} else {
		st.BKReused++
	}
	if len(newCodes) > 0 || old.byCode == nil {
		set.byCode = make(map[string]int32, len(groups))
		maps.Copy(set.byCode, old.byCode)
		for gi := len(old.groups); gi < len(groups); gi++ {
			set.byCode[groups[gi].code] = int32(gi)
		}
	}
	for len(set.bk) < len(set.groups) {
		set.bk = bkInsert(set.bk, set.groups)
	}
	return set
}
