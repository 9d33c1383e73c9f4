package literal

// persist.go serializes catalogs for the tenant registry's eviction
// protocol: an evicted tenant's catalog is written to disk and lazily
// reloaded on next use. The format follows the repo's persist-v2 arena
// discipline (trieindex/persist.go): entries, groups, and the members
// arena are stored flat; derived state — the lowered-name map, first[]
// offsets, maxCode, and the BK-tree — is rebuilt on load from the stored
// group order, so a reload reproduces the exact tree shape the evicted
// catalog had (including the sorted-prefix-plus-appended order incremental
// updates leave behind) without ever trusting serialized tree links.
//
// ReadCatalog treats its input as hostile: every count is bounded by the
// bytes actually read (slices grow by append, never by a header-sized
// make), and the structural invariants voting depends on — sorted
// deduplicated entries, non-empty groups with distinct codes, members a
// permutation of the entries, codes matching their members' encodings —
// are all validated before the catalog is returned.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

const (
	catalogMagic = "SPQLCT"
	// catalogVersion is 2 from birth: the format is an arena image, the
	// persist-v2 scheme of this repo, and version 1 (a plain name list) was
	// never shipped.
	catalogVersion = 2

	// maxCatalogString bounds one serialized name or code.
	maxCatalogString = 1 << 20
	// preallocHint caps speculative slice capacity before the claimed
	// element count has been paid for with actual input bytes.
	preallocHint = 1 << 12
)

// WriteCatalog serializes c: its entry sets, group layout, and per-column
// domains.
func WriteCatalog(w io.Writer, c *Catalog) (err error) {
	bw := bufio.NewWriter(w)
	defer func() {
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
	}()
	if _, err = bw.WriteString(catalogMagic); err != nil {
		return err
	}
	if err = writeCatUvarint(bw, catalogVersion); err != nil {
		return err
	}
	for _, set := range []*catSet{&c.tables, &c.attrs, &c.values} {
		if err = writeCatSet(bw, set); err != nil {
			return err
		}
	}
	if err = writeCatUvarint(bw, uint64(len(c.byAttr))); err != nil {
		return err
	}
	for _, attr := range sortedKeys(c.byAttr) {
		if err = writeCatString(bw, attr); err != nil {
			return err
		}
		if err = writeCatSet(bw, c.byAttr[attr]); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys(m map[string]*catSet) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; byAttr maps are small
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// writeCatSet emits one category set: entries (name + cached code), the
// group layout (code + size, in group order), and the members arena.
func writeCatSet(w *bufio.Writer, set *catSet) error {
	if err := writeCatUvarint(w, uint64(len(set.entries))); err != nil {
		return err
	}
	for _, e := range set.entries {
		if err := writeCatString(w, e.Name); err != nil {
			return err
		}
		if err := writeCatString(w, e.Phonetic); err != nil {
			return err
		}
	}
	if err := writeCatUvarint(w, uint64(len(set.groups))); err != nil {
		return err
	}
	for _, g := range set.groups {
		if err := writeCatString(w, g.code); err != nil {
			return err
		}
		if err := writeCatUvarint(w, uint64(g.num)); err != nil {
			return err
		}
	}
	for _, m := range set.members {
		if err := writeCatUvarint(w, uint64(m)); err != nil {
			return err
		}
	}
	return nil
}

// ReadCatalog loads a catalog written by WriteCatalog, validating every
// structural invariant.
func ReadCatalog(r io.Reader) (*Catalog, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(catalogMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("literal: read magic: %w", err)
	}
	if string(magic) != catalogMagic {
		return nil, fmt.Errorf("literal: not a catalog file")
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if version != catalogVersion {
		return nil, fmt.Errorf("literal: unsupported catalog version %d", version)
	}
	c := &Catalog{}
	for _, dst := range []*catSet{&c.tables, &c.attrs, &c.values} {
		set, err := readCatSet(br)
		if err != nil {
			return nil, err
		}
		*dst = set
	}
	nCols, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nCols > 0 {
		c.byAttr = make(map[string]*catSet, min(nCols, preallocHint))
		for i := uint64(0); i < nCols; i++ {
			attr, err := readCatString(br)
			if err != nil {
				return nil, err
			}
			// byAttr keys are lowercased at construction; normalize so a
			// foreign-cased file cannot create an unreachable column set.
			attr = strings.ToLower(attr)
			if _, dup := c.byAttr[attr]; dup {
				return nil, fmt.Errorf("literal: duplicate column %q", attr)
			}
			set, err := readCatSet(br)
			if err != nil {
				return nil, fmt.Errorf("literal: column %q: %w", attr, err)
			}
			sp := new(catSet)
			*sp = set
			c.byAttr[attr] = sp
		}
	}
	return c, nil
}

// readCatSet loads and validates one category set, rebuilding the derived
// state (byLower, first offsets, maxCode, BK-tree) from the stored arrays.
func readCatSet(br *bufio.Reader) (catSet, error) {
	var set catSet
	nEntries, err := binary.ReadUvarint(br)
	if err != nil {
		return set, err
	}
	// Grow by append: each entry costs at least two bytes of input, so a
	// lying header errors after bounded work instead of a giant make.
	entries := make([]entry, 0, min(nEntries, preallocHint))
	for i := uint64(0); i < nEntries; i++ {
		name, err := readCatString(br)
		if err != nil {
			return set, err
		}
		code, err := readCatString(br)
		if err != nil {
			return set, err
		}
		if name == "" {
			return set, fmt.Errorf("literal: empty entry name")
		}
		if len(entries) > 0 && entries[len(entries)-1].Name >= name {
			return set, fmt.Errorf("literal: entries not strictly sorted at %q", name)
		}
		entries = append(entries, entry{Name: name, Lower: strings.ToLower(name), Phonetic: code})
	}
	set.entries = entries
	set.byLower = make(map[string]int32, len(entries))
	for i, e := range entries {
		if _, ok := set.byLower[e.Lower]; !ok {
			set.byLower[e.Lower] = int32(i)
		}
		if len(e.Phonetic) > set.maxCode {
			set.maxCode = len(e.Phonetic)
		}
	}

	nGroups, err := binary.ReadUvarint(br)
	if err != nil {
		return set, err
	}
	if nGroups > nEntries {
		return set, fmt.Errorf("literal: %d groups for %d entries", nGroups, nEntries)
	}
	groups := make([]phoneGroup, 0, min(nGroups, preallocHint))
	codeSeen := make(map[string]bool, min(nGroups, preallocHint))
	total := uint64(0)
	for i := uint64(0); i < nGroups; i++ {
		code, err := readCatString(br)
		if err != nil {
			return set, err
		}
		num, err := binary.ReadUvarint(br)
		if err != nil {
			return set, err
		}
		if num == 0 {
			// An empty group winning a nearest-radius search would yield zero
			// votes and diverge from the naive reference; never admit one.
			return set, fmt.Errorf("literal: empty phonetic group %q", code)
		}
		if codeSeen[code] {
			return set, fmt.Errorf("literal: duplicate phonetic group %q", code)
		}
		codeSeen[code] = true
		total += num
		if total > nEntries {
			return set, fmt.Errorf("literal: group sizes exceed entry count")
		}
		groups = append(groups, phoneGroup{code: code, first: int32(total - num), num: int32(num)})
	}
	if total != nEntries {
		return set, fmt.Errorf("literal: group sizes cover %d of %d entries", total, nEntries)
	}
	members := make([]int32, 0, min(nEntries, preallocHint))
	claimed := make([]bool, nEntries)
	gi := 0
	for i := uint64(0); i < nEntries; i++ {
		m, err := binary.ReadUvarint(br)
		if err != nil {
			return set, err
		}
		if m >= nEntries {
			return set, fmt.Errorf("literal: member index %d out of range", m)
		}
		if claimed[m] {
			return set, fmt.Errorf("literal: entry %d in two groups", m)
		}
		claimed[m] = true
		for uint64(groups[gi].first)+uint64(groups[gi].num) <= i {
			gi++
		}
		if entries[m].Phonetic != groups[gi].code {
			return set, fmt.Errorf("literal: entry %q filed under code %q, encodes to %q",
				entries[m].Name, groups[gi].code, entries[m].Phonetic)
		}
		members = append(members, int32(m))
	}
	set.groups, set.members = groups, members
	set.bk = buildBK(groups)
	set.byCode = buildCodeMap(groups)
	return set, nil
}

func writeCatUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeCatString(w *bufio.Writer, s string) error {
	if err := writeCatUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readCatString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxCatalogString {
		return "", fmt.Errorf("literal: string too long (%d)", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
