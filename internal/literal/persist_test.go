package literal

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

func testCatalog() *Catalog {
	return NewCatalog(
		[]string{"Employees", "Departments", "Salaries"},
		[]string{"FirstName", "LastName", "Salary", "City"},
		[]string{"John", "Jon", "Smith", "Phoenix", "d001", "d002"},
	).WithColumnValues(map[string][]string{
		"City":      {"Phoenix", "Tempe", "Mesa"},
		"FirstName": {"John", "Jon", "Joan"},
	})
}

// TestCatalogRoundTrip pins that a reloaded catalog is observably identical
// to the original: same name lists, same column domains, and bit-identical
// vote rankings on both voting paths.
func TestCatalogRoundTrip(t *testing.T) {
	cat := testCatalog()
	var buf bytes.Buffer
	if err := WriteCatalog(&buf, cat); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadCatalog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got.Tables(), cat.Tables()) ||
		!reflect.DeepEqual(got.Attributes(), cat.Attributes()) ||
		!reflect.DeepEqual(got.Values(), cat.Values()) {
		t.Fatalf("name lists differ after round trip")
	}
	for _, set := range []struct {
		name      string
		got, want *catSet
	}{
		{"tables", &got.tables, &cat.tables},
		{"attrs", &got.attrs, &cat.attrs},
		{"values", &got.values, &cat.values},
	} {
		requireSetInvariants(t, set.got)
		if !reflect.DeepEqual(set.got.groups, set.want.groups) {
			t.Fatalf("%s: group layout differs", set.name)
		}
		if !reflect.DeepEqual(set.got.bk, set.want.bk) {
			t.Fatalf("%s: BK-tree shape differs after reload", set.name)
		}
	}
	city, ok := got.columnValues("city")
	if !ok {
		t.Fatalf("column domain lost")
	}
	requireSetInvariants(t, city)
	rng := rand.New(rand.NewSource(11))
	sameRankings(t, &got.values, &cat.values, rng)
}

// TestCatalogRoundTripAfterDelta pins that persisting an incrementally
// updated catalog (whose group order is a sorted prefix plus appended new
// codes) reloads with the same group order and tree shape.
func TestCatalogRoundTripAfterDelta(t *testing.T) {
	cat, _ := testCatalog().ApplyDelta(CatalogDelta{
		AddValues:    []string{"Zyzzyx", "Quartz"},
		RemoveValues: []string{"Smith"},
	})
	var buf bytes.Buffer
	if err := WriteCatalog(&buf, cat); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadCatalog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(got.values.groups, cat.values.groups) {
		t.Fatalf("group order not preserved across reload")
	}
	if !reflect.DeepEqual(got.values.bk, cat.values.bk) {
		t.Fatalf("BK shape not reproduced across reload")
	}
	requireSetInvariants(t, &got.values)
}

// TestReadCatalogRejectsHostileInput hand-crafts the corruption classes the
// registry must survive: truncation, bad magic, lying counts, empty and
// duplicate groups, out-of-range members, mismatched codes.
func TestReadCatalogRejectsHostileInput(t *testing.T) {
	var valid bytes.Buffer
	if err := WriteCatalog(&valid, testCatalog()); err != nil {
		t.Fatalf("write: %v", err)
	}
	vb := valid.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOTACATALOG"),
		"bad version": append([]byte(catalogMagic), 0x63),
		"magic only":  []byte(catalogMagic),
		// A header claiming 2^40 entries with no data behind it must error
		// after bounded work, not allocate.
		"huge entry count": append([]byte(catalogMagic), 0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02),
		// Entry whose name length claims 2^30 bytes.
		"huge string": append([]byte(catalogMagic), 0x02, 0x01, 0x80, 0x80, 0x80, 0x80, 0x04),
	}
	for i := 1; i < len(vb); i += 7 {
		cases["truncated@"+string(rune('0'+i%10))] = vb[:i]
	}
	for name, data := range cases {
		if _, err := ReadCatalog(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: hostile input accepted", name)
		}
	}

	// Structured corruptions: serialize tiny sets by hand.
	str := func(s string) []byte { return append([]byte{byte(len(s))}, s...) }
	hand := func(parts ...[]byte) []byte {
		out := append([]byte(catalogMagic), 0x02)
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// One entry "A" code "A"; then malformed group sections.
	entryA := append([]byte{0x01}, append(str("A"), str("A")...)...)
	structured := map[string][]byte{
		// groups=1 {code "A", num 0} — empty group.
		"empty group": hand(entryA, []byte{0x01}, str("A"), []byte{0x00}),
		// groups=2, both code "A" num … — duplicate code (sizes lie too).
		"dup group": hand(entryA, []byte{0x02}, str("A"), []byte{0x01}, str("A"), []byte{0x01}),
		// group sizes exceed entries.
		"oversized group": hand(entryA, []byte{0x01}, str("A"), []byte{0x05}),
		// member index out of range.
		"member range": hand(entryA, []byte{0x01}, str("A"), []byte{0x01}, []byte{0x09}),
		// member filed under the wrong code.
		"wrong code": hand(entryA, []byte{0x01}, str("B"), []byte{0x01}, []byte{0x00}),
		// unsorted entries.
		"unsorted": hand(append([]byte{0x02},
			append(append(str("B"), str("B")...), append(str("A"), str("A")...)...)...)),
	}
	for name, data := range structured {
		if _, err := ReadCatalog(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: hostile input accepted", name)
		}
	}
}

// FuzzReadCatalog asserts ReadCatalog never panics and that anything it
// accepts satisfies the voting invariants.
func FuzzReadCatalog(f *testing.F) {
	var valid bytes.Buffer
	_ = WriteCatalog(&valid, testCatalog())
	f.Add(valid.Bytes())
	var tiny bytes.Buffer
	_ = WriteCatalog(&tiny, NewCatalog(nil, nil, nil))
	f.Add(tiny.Bytes())
	f.Add([]byte(catalogMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cat, err := ReadCatalog(bytes.NewReader(data))
		if err != nil {
			return
		}
		requireSetInvariants(t, &cat.tables)
		requireSetInvariants(t, &cat.attrs)
		requireSetInvariants(t, &cat.values)
	})
}
