package trieindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// smallIndexBytes serializes a tiny index in the current format and in the
// retired version 1, for seeds, mutation bases, and rejection cases.
func smallIndexBytes(t testing.TB) (cur, v1 []byte) {
	t.Helper()
	ix := indexOf(8, "SELECT x FROM x", "SELECT x FROM x WHERE x = x", "SELECT MAX ( x ) FROM x")
	var bc, b1 bytes.Buffer
	if err := ix.Save(&bc); err != nil {
		t.Fatal(err)
	}
	if err := ix.saveV1(&b1); err != nil {
		t.Fatal(err)
	}
	return bc.Bytes(), b1.Bytes()
}

// uv renders a uvarint (hand-building hostile headers).
func uv(v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	return buf[:binary.PutUvarint(buf[:], v)]
}

// TestReadIndexRejectsHostileInput hand-crafts the header lies a forged or
// corrupted index file can tell: counts that would size multi-gigabyte
// allocations from a few bytes of input, structure lengths past the trie
// table, token ids past the dictionary, child ranges that do not tile the
// arena, structures of the wrong length, and dictionaries the interner
// cannot number one to one. Every one must error after bounded work — never
// panic, never allocate in proportion to the lie — and where a case names
// a check, it must fail on that check.
func TestReadIndexRejectsHostileInput(t *testing.T) {
	cur, v1 := smallIndexBytes(t)

	head := func(parts ...[]byte) []byte {
		out := []byte(persistMagic)
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	v := uv(persistVersion)
	// A minimal valid prefix: maxLen 8, dict ["a"], total 1, 1 trie.
	dictA := append(uv(1), append(uv(1), 'a')...)
	// dictFile is a complete file over dict holding one structure, the
	// one-token structure of token id tok, so a rejection of it is a
	// rejection of its dictionary.
	dictFile := func(tok uint64, dict ...string) []byte {
		parts := [][]byte{v, uv(8), uv(uint64(len(dict)))}
		for _, s := range dict {
			parts = append(parts, uv(uint64(len(s))), []byte(s))
		}
		// total 1; one trie: length 1, 1 structure, 2 nodes, child counts
		// 1 and 0, and the leaf's token.
		return head(append(parts, uv(1), uv(1), uv(1), uv(1), uv(2), uv(1), uv(0), uv(tok))...)
	}
	var distinct []string // 65,536 entries
	for i := range 1 << 16 {
		distinct = append(distinct, fmt.Sprintf("t%d", i))
	}

	cases := map[string][]byte{
		"empty":       {},
		"magic only":  []byte(persistMagic),
		"bad version": head(uv(99)),
		// maxLen 2^40: would size the trie table without this byte costing
		// anything near that.
		"huge maxLen": head(v, uv(1<<40)),
		"zero maxLen": head(v, uv(0)),
		// 2^40 dictionary entries with no strings behind them.
		"huge dict": head(v, uv(8), uv(1<<40)),
		// More tokens than tokenID can number (silent uint16 wrap).
		"dict wraps tokenID": head(v, uv(8), uv(1<<17)),
		// Interning folds the repeated "a", so token id 1 passes the id <
		// entries check and lies past the interner and the per-id tables.
		"repeated dictionary entry": dictFile(1, "a", "a"),
		// The last entry would get id 0xFFFF, unknownID, and match every
		// query token outside the dictionary.
		"dict reaches unknownID": dictFile(0, distinct...),
		// Arena claiming 2^30 nodes backed by nothing.
		"huge arena": head(v, uv(8), dictA, uv(1), uv(1), uv(3), uv(1), uv(1<<30)),
		// Structure count exceeding the node count.
		"count > nodes": head(v, uv(8), dictA, uv(1), uv(1), uv(3), uv(9), uv(2)),
		// Child count larger than the arena (would wrap int32 if unchecked).
		"child count wraps": head(v, uv(8), dictA, uv(1), uv(1), uv(3), uv(1), uv(2), uv(1<<33)),
		// Trie length outside [1, maxLen].
		"trie length range": head(v, uv(8), dictA, uv(1), uv(1), uv(99), uv(1), uv(2)),
		// Token id past the dictionary.
		"token id range": head(v, uv(8), dictA, uv(1), uv(1), uv(1),
			uv(1), uv(2), uv(1), uv(0), uv(7)),
		// Node 1 of the length-2 trie is its own child: the child counts
		// tile the arena, but node 1's range starts at node 1.
		"children before parent": head(v, uv(8), dictA, uv(1), uv(1), uv(2),
			uv(1), uv(2), uv(0), uv(1), uv(0)),
		// A path deeper than its trie's length: node 1 of the length-1 trie
		// has a child at depth 2.
		"path past length": head(v, uv(8), dictA, uv(1), uv(1), uv(1),
			uv(1), uv(3), uv(1), uv(1), uv(0), uv(0), uv(0)),
		// A structure short of its trie's length: the length-2 trie's one
		// path ends at depth 1, so no node lies at depth 2.
		"leaf short of length": head(v, uv(8), dictA, uv(1), uv(1), uv(2),
			uv(1), uv(2), uv(1), uv(0), uv(0)),
	}
	// The check each of these cases must fail on.
	wantErr := map[string]string{
		"repeated dictionary entry": "entry 1 repeats entry 0",
		"dict reaches unknownID":    "dictionary size 65536",
		"token id range":            "token id 7",
		"children before parent":    "node 1's children come before it",
		"path past length":          "node 1 at depth 1 has children",
		"leaf short of length":      "0 nodes at depth 2, header says 1",
	}
	for i := 1; i < len(cur); i += 11 {
		cases["truncated@"+string(rune('a'+i%26))] = cur[:i]
	}
	for i := 1; i < len(v1); i += 11 {
		cases["v1 truncated@"+string(rune('a'+i%26))] = v1[:i]
	}
	for name, data := range cases {
		_, err := ReadIndex(bytes.NewReader(data))
		if err == nil {
			t.Errorf("%s: hostile input accepted", name)
		} else if !strings.Contains(err.Error(), wantErr[name]) {
			t.Errorf("%s: err = %v, want %q", name, err, wantErr[name])
		}
	}
	// The dictionary cases differ from accepted files only in their
	// dictionary.
	for name, data := range map[string][]byte{
		"distinct entries": dictFile(1, "a", "b"),
		"65,535 entries":   dictFile(1<<16-2, distinct[:1<<16-1]...),
	} {
		if _, err := ReadIndex(bytes.NewReader(data)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	// Versions 1 and 2 are retired: a well-formed v1 file, bare v1 and v2
	// headers, and the v1 bodies its loader used to bound are all refused
	// on the version alone.
	for name, data := range map[string][]byte{
		"v1 file":               v1,
		"v1 header":             head(uv(1)),
		"v1 structure too long": head(uv(1), uv(4), dictA, uv(1), uv(9)),
		"v1 zero-length":        head(uv(1), uv(4), dictA, uv(1), uv(0)),
		"v2 header":             head(uv(2)),
	} {
		// The version is the byte after the magic.
		want := fmt.Sprintf("unsupported version %d", data[len(persistMagic)])
		if _, err := ReadIndex(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %s", name, err, want)
		}
	}
}

// FuzzReadIndex asserts ReadIndex never panics and never over-allocates on
// arbitrary input — the seeds include a retired version-1 file, which must
// be rejected — and that anything accepted is an index whose arenas tile
// correctly (re-saving it must succeed and round-trip) and that can be
// searched: one SearchTopK whose k exceeds the structure count, so the
// sweep visits every node, must return every structure.
func FuzzReadIndex(f *testing.F) {
	cur, v1 := smallIndexBytes(f)
	f.Add(cur)
	f.Add(v1)
	f.Add([]byte(persistMagic))
	f.Add(cur[:len(cur)/2])
	f.Add(v1[:len(v1)/2])
	// A couple of single-byte mutants to seed the header paths.
	for _, i := range []int{7, 9, len(cur) - 1} {
		m := append([]byte(nil), cur...)
		m[i] ^= 0xff
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatalf("accepted index cannot re-save: %v", err)
		}
		back, err := ReadIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-saved index rejected: %v", err)
		}
		if back.Total() != ix.Total() {
			t.Fatalf("re-save changed totals: %d vs %d", back.Total(), ix.Total())
		}
		if rs, _ := ix.SearchTopK(ix.in.strs, ix.Total()+1, Options{}); len(rs) != ix.Total() {
			t.Fatalf("search returned %d of %d structures", len(rs), ix.Total())
		}
	})
}

// fuzzStructures is a small index dense in exact-distance ties: the
// TestNodeBound and Figure 10 structures, near-duplicates of them that
// swap, drop or add one token of the same weight class, and a few SQL
// shapes whose prime-group siblings (=, <, >; AND, OR; COUNT, MAX) give DAP
// and INV something to choose between.
var fuzzStructures = []string{
	"x x x foo", "SELECT x x x", "x x x x SELECT FROM", "SELECT FROM x x x x",
	"A", "A B", "A B C", "A B C D", "A B C D E",
	"x x foo x", "x foo x x", "foo x x x", "SELECT x x foo", "x SELECT x x",
	"x x x", "x x x x", "x x x x x", "SELECT FROM x x", "FROM SELECT x x x x",
	"A A", "B B", "A C", "B C", "A B A", "B A B", "A B B", "A B C E",
	"SELECT x FROM x", "SELECT x FROM x WHERE x = x", "SELECT x FROM x WHERE x < x",
	"SELECT x FROM x WHERE x > x", "SELECT x FROM x WHERE x = x AND x = x",
	"SELECT x FROM x WHERE x = x OR x = x", "SELECT COUNT ( x ) FROM x",
	"SELECT MAX ( x ) FROM x", "x = x AND x = x", "x = x OR x = x", "x = x", "x < x",
}

// fuzzVocab is the query alphabet: tokens of every weight class, one
// INV-indexed keyword (AND), and one token no structure holds.
var fuzzVocab = [10]string{"x", "A", "B", "foo", "SELECT", "FROM", "WHERE", "=", "AND", "zzz"}

// FuzzSearchMatchesReference is a differential for the search kernel: for a
// fuzzed query over fuzzVocab (at most 24 tokens), k ∈ 1..12 and each of
// the five option sets, the arena SearchTopK — warm-start dive, node bound,
// banded columns and all — must return exactly what the pointer reference
// returns pruning on min(col) alone with no seed: the same structures at
// the same distances in the same order. Its Stats must equal those of the
// full-column reference with the node bound and the reference dive, except
// DiveSteps, which may only be lower.
func FuzzSearchMatchesReference(f *testing.F) {
	ix, roots := indexWithPointers(16, fuzzStructures...)
	optSets := [5]Options{{}, {DisableBDB: true}, {DAP: true}, {INV: true}, {UniformWeights: true}}
	for i, q := range [][]byte{{0, 0, 0, 0}, {1, 2, 1}, {4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 7, 0}, {3, 9, 0}, {}} {
		f.Add(q, uint8(i*5), uint8(i))
	}
	f.Fuzz(func(t *testing.T, toks []byte, k, opt uint8) {
		if len(toks) > 24 {
			toks = toks[:24]
		}
		q := make([]string, len(toks))
		for i, b := range toks {
			q[i] = fuzzVocab[int(b)%len(fuzzVocab)]
		}
		kk := 1 + int(k)%12
		opts := optSets[int(opt)%len(optSets)]
		want, _ := ix.searchPointer(roots, q, kk, opts, false, false)
		got, st := ix.SearchTopK(q, kk, opts)
		label := fmt.Sprintf("%+v k=%d %v", opts, kk, q)
		sameResults(t, label, got, want)
		if _, ref := ix.searchPointer(roots, q, kk, opts, true, true); !matchesReferenceStats(st, ref) {
			t.Fatalf("%s: stats differ:\n reference %+v\n arena     %+v", label, ref, st)
		}
	})
}

// FuzzBandMatchesFull checks the banded column kernel against the full
// one, step by step. It steps a fuzzed query (over fuzzVocab, at most 24
// tokens) down a fuzzed path of index tokens (at most the index's longest
// structure) twice: with fullStep, and with stepInto under a fuzzed limit
// that each step may tighten, fencing each parent as the callers do and
// stepping into columns whose stale rows read 0, the cheapest lie. At
// every step each row whose full-column cell bound is below the limit must
// lie in the band and hold its full-column value, and the node bound must
// equal the full column's whenever that is below the limit. The walk
// stops where the kernel would prune: at a node bound at or above the
// limit. Limits map to 0–510 tenths, and 511 to unbounded.
func FuzzBandMatchesFull(f *testing.F) {
	ix := indexOf(16, fuzzStructures...)
	optSets := [3]Options{{}, {DisableBDB: true}, {UniformWeights: true}}
	f.Add([]byte{4, 0, 5, 0, 6, 0, 7, 0}, []byte{0, 1, 2, 1, 3, 1, 4, 1}, uint16(60), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, []byte{1, 1, 1, 1, 1}, uint16(511), uint8(1))
	f.Add([]byte{1, 2, 9, 3}, []byte{0x35, 0x12, 0x21}, uint16(40), uint8(2))
	f.Add([]byte{}, []byte{2, 2}, uint16(25), uint8(0))
	f.Fuzz(func(t *testing.T, qb, pb []byte, lim uint16, opt uint8) {
		if len(qb) > 24 {
			qb = qb[:24]
		}
		if len(pb) > ix.maxLen {
			pb = pb[:ix.maxLen]
		}
		q := make([]string, len(qb))
		for i, b := range qb {
			q[i] = fuzzVocab[int(b)%len(fuzzVocab)]
		}
		var st Stats
		s := ix.getSearcher(q, 1, optSets[int(opt)%len(optSets)], &st)
		defer ix.putSearcher(s)
		m := len(s.q)
		limit := int32(lim % 512)
		if limit == 511 {
			limit = unbounded
		}
		full := make([]int32, m+1)
		s.rootColumn(full)
		band := append([]int32(nil), full...)
		lo, hi := 0, m
		for d, b := range pb {
			// The low bits pick the token, the high ones tighten the limit.
			tok := tokenID(int(b&0x1f) % len(ix.in.strs))
			if limit != unbounded {
				limit = max(0, limit-int32(b>>5)*5)
			}
			rem := len(pb) - d - 1
			fullNext := make([]int32, m+1)
			fullBound := s.fullStep(full, fullNext, tok, rem)
			fence(band, lo, hi)
			next := make([]int32, m+1)
			bound, clo, chi := s.stepInto(band, next, lo, hi, tok, rem, limit)
			label := fmt.Sprintf("%v step %d (%q, rem %d, limit %d)", q, d, ix.in.str(tok), rem, limit)
			for i, v := range fullNext {
				if v+s.gap[rem+i] >= limit {
					continue
				}
				if i < clo || i > chi {
					t.Fatalf("%s: live row %d outside band [%d, %d]", label, i, clo, chi)
				}
				if next[i] != v {
					t.Fatalf("%s: row %d holds %d, full column %d", label, i, next[i], v)
				}
			}
			if (fullBound < limit || bound < limit) && bound != fullBound {
				t.Fatalf("%s: node bound %d, full column %d", label, bound, fullBound)
			}
			if fullBound >= limit {
				return // the kernel prunes here
			}
			full, band, lo, hi = fullNext, next, clo, chi
		}
	})
}
