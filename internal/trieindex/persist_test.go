package trieindex

import (
	"bufio"
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"speakql/internal/grammar"
)

// saveV1 writes the retired version-1 format (each structure as a token-id
// path), so the tests keep a well-formed v1 file on hand: ReadIndex must
// reject it as an unsupported version.
func (ix *Index) saveV1(w io.Writer) (err error) {
	bw := bufio.NewWriter(w)
	defer func() {
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
	}()
	if _, err = bw.WriteString(persistMagic); err != nil {
		return err
	}
	if err = writeUvarint(bw, 1); err != nil {
		return err
	}
	if err = writeUvarint(bw, uint64(ix.maxLen)); err != nil {
		return err
	}
	if err = writeUvarint(bw, uint64(len(ix.in.strs))); err != nil {
		return err
	}
	for _, s := range ix.in.strs {
		if err = writeString(bw, s); err != nil {
			return err
		}
	}
	if err = writeUvarint(bw, uint64(ix.total)); err != nil {
		return err
	}
	ix.forEachStructure(func(path []tokenID) {
		if err != nil {
			return
		}
		if err = writeUvarint(bw, uint64(len(path))); err != nil {
			return
		}
		for _, id := range path {
			if err = writeUvarint(bw, uint64(id)); err != nil {
				return
			}
		}
	})
	return err
}

func TestPersistRoundTrip(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	t.Logf("serialized %d structures in %d bytes (%.1f B/structure)",
		ix.Total(), buf.Len(), float64(buf.Len())/float64(ix.Total()))

	back, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Total() != ix.Total() {
		t.Fatalf("round trip lost structures: %d vs %d", back.Total(), ix.Total())
	}
	if back.NumTries() != ix.NumTries() {
		t.Fatalf("tries differ: %d vs %d", back.NumTries(), ix.NumTries())
	}
	// Searches agree exactly. The loaded index has no inverted lists, so an
	// INV search on it is the trie search.
	queries := [][]string{
		strings.Fields("SELECT x FROM x x x = x"),
		strings.Fields("SELECT AVG ( x ) FROM x"),
		strings.Fields("SELECT x FROM x WHERE x BETWEEN x AND x ORDER BY x"),
	}
	for _, q := range queries {
		a, _ := ix.Search(q, Options{})
		for _, opts := range []Options{{}, {INV: true}} {
			b, st := back.Search(q, opts)
			if st.UsedINV || a.Distance != b.Distance ||
				strings.Join(a.Tokens, " ") != strings.Join(b.Tokens, " ") {
				t.Fatalf("search %+v disagrees after round trip for %v:\n  %v (%.2f)\n  %v (%.2f, INV used %v)",
					opts, q, a.Tokens, a.Distance, b.Tokens, b.Distance, st.UsedINV)
			}
		}
	}
}

// The arena round trip must reproduce the arenas bit for bit — same
// tokens, child offsets, and structure count per trie.
func TestPersistArenaRoundTripExact(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for length, tr := range ix.tries {
		var btr *trie
		if length < len(back.tries) {
			btr = back.tries[length]
		}
		if (tr == nil) != (btr == nil) {
			t.Fatalf("length %d: presence differs", length)
		}
		if tr == nil {
			continue
		}
		if !slices.Equal(tr.tok, btr.tok) {
			t.Fatalf("length %d: tokens differ", length)
		}
		if !slices.Equal(tr.first, btr.first) {
			t.Fatalf("length %d: child offsets differ", length)
		}
		if tr.count != btr.count {
			t.Fatalf("length %d: counts differ", length)
		}
	}
	// And a second save is byte-identical (deterministic format).
	var buf2 bytes.Buffer
	if err := back.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	var buf1 bytes.Buffer
	if err := ix.Save(&buf1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("re-saving a reloaded index changed the bytes")
	}
}

func TestReadIndexErrors(t *testing.T) {
	if _, err := ReadIndex(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadIndex(strings.NewReader("NOTANINDEXFILE")); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated payload.
	var buf bytes.Buffer
	if err := indexOf(10, "SELECT x FROM x").Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(bytes.NewReader(buf.Bytes()[:buf.Len()-3])); err == nil {
		t.Error("truncated index accepted")
	}
}
