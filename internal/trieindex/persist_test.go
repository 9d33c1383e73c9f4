package trieindex

import (
	"bufio"
	"bytes"
	"io"
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

	back, err := ReadIndex(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if back.Total() != ix.Total() {
		t.Fatalf("round trip lost structures: %d vs %d", back.Total(), ix.Total())
	}
	if back.NumTries() != ix.NumTries() {
		t.Fatalf("tries differ: %d vs %d", back.NumTries(), ix.NumTries())
	}
	// Searches agree exactly.
	queries := [][]string{
		strings.Fields("SELECT x FROM x x x = x"),
		strings.Fields("SELECT AVG ( x ) FROM x"),
		strings.Fields("SELECT x FROM x WHERE x BETWEEN x AND x ORDER BY x"),
	}
	for _, q := range queries {
		a, _ := ix.Search(q, Options{})
		b, _ := back.Search(q, Options{})
		if a.Distance != b.Distance ||
			strings.Join(a.Tokens, " ") != strings.Join(b.Tokens, " ") {
			t.Fatalf("search disagrees after round trip for %v:\n  %v (%.2f)\n  %v (%.2f)",
				q, a.Tokens, a.Distance, b.Tokens, b.Distance)
		}
	}
}

func TestPersistKeepINV(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), true)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIndex(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	q := strings.Fields("SELECT x FROM x WHERE x BETWEEN x AND x")
	res, st := back.Search(q, Options{INV: true})
	if !st.UsedINV {
		t.Error("INV not usable on reloaded index")
	}
	if res.Distance != 0 {
		t.Errorf("reloaded INV search distance = %v", res.Distance)
	}
}

// The arena round trip must reproduce the arenas bit for bit — same node
// counts, tokens, child ranges, and leaf flags per trie.
func TestPersistArenaRoundTripExact(t *testing.T) {
	ix := buildIndex(t, grammar.TestScale(), false)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIndex(&buf, false)
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
		a, b := tr.flat, btr.flat
		if len(a.tok) != len(b.tok) {
			t.Fatalf("length %d: node count %d vs %d", length, len(a.tok), len(b.tok))
		}
		for i := range a.tok {
			if i > 0 && a.tok[i] != b.tok[i] || a.leaf[i] != b.leaf[i] ||
				a.first[i] != b.first[i] || a.num[i] != b.num[i] {
				t.Fatalf("length %d: node %d differs", length, i)
			}
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
	if _, err := ReadIndex(strings.NewReader(""), false); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadIndex(strings.NewReader("NOTANINDEXFILE"), false); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated payload.
	var buf bytes.Buffer
	if err := indexOf(10, "SELECT x FROM x").Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(bytes.NewReader(buf.Bytes()[:buf.Len()-3]), false); err == nil {
		t.Error("truncated index accepted")
	}
}
