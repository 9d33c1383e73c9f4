package trieindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The structure corpus is generated offline (Section 3.2); a production
// deployment builds the index once and serves it. Save/ReadIndex persist
// the index in a compact binary format.
//
// Version 2 serializes the arenas directly — per trie the num[]
// (child-count) array, the tok[] array, and a leaf bitmap. Because the
// arena layout is breadth-first, first[] is exactly the running prefix sum
// of num[] and is derived on load, so cold-start is a few bulk array reads
// per trie with no pointer-trie reconstruction and no re-insertion. It is
// the only version read: version 1 (each structure as a token-id path),
// written only by the earliest releases, is rejected like any other
// unknown version.

const (
	persistMagic   = "SPQLIX"
	persistVersion = 2

	// Hostile-input ceilings. A persisted header is untrusted until proven
	// otherwise: every count is bounded before it sizes an allocation, and
	// variable-length sections are read with append-grow slices so memory
	// consumed tracks bytes actually present in the input, not bytes a
	// forged header promises.
	maxPersistLen    = 1 << 16 // longest structure any sane corpus holds
	maxPersistTokens = 1 << 16 // tokenID is uint16; more would wrap intern
	maxPersistNodes  = 1 << 28 // per-trie arena nodes (int32 offsets)
	persistPrealloc  = 1 << 12 // cap on header-trusting preallocation
)

// Save serializes the index in the arena format. The INV flag is not
// persisted — the loader chooses whether to rebuild the inverted lists.
func (ix *Index) Save(w io.Writer) (err error) {
	bw := bufio.NewWriter(w)
	defer func() {
		if ferr := bw.Flush(); err == nil {
			err = ferr
		}
	}()
	if _, err = bw.WriteString(persistMagic); err != nil {
		return err
	}
	if err = writeUvarint(bw, persistVersion); err != nil {
		return err
	}
	if err = writeUvarint(bw, uint64(ix.maxLen)); err != nil {
		return err
	}
	// Token dictionary.
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
	nTries := 0
	for _, tr := range ix.tries {
		if tr != nil {
			nTries++
		}
	}
	if err = writeUvarint(bw, uint64(nTries)); err != nil {
		return err
	}
	for length, tr := range ix.tries {
		if tr == nil {
			continue
		}
		if err = writeArena(bw, length, tr); err != nil {
			return err
		}
	}
	return nil
}

// writeArena emits one trie: its length, structure count, node
// count, num[] and tok[] arrays, and the leaf bitmap. first[] is implied by
// the BFS layout and not stored.
func writeArena(w *bufio.Writer, length int, tr *trie) error {
	ft := tr.flat
	n := len(ft.tok) // includes the root at index 0
	if err := writeUvarint(w, uint64(length)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(tr.count)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(n)); err != nil {
		return err
	}
	for _, c := range ft.num {
		if err := writeUvarint(w, uint64(c)); err != nil {
			return err
		}
	}
	for _, id := range ft.tok[1:] { // root's tok is unused
		if err := writeUvarint(w, uint64(id)); err != nil {
			return err
		}
	}
	bitmap := make([]byte, (n+7)/8)
	for i, l := range ft.leaf {
		if l {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	_, err := w.Write(bitmap)
	return err
}

// ReadIndex loads an index persisted by Save (the version 2 arena format).
// keepINV rebuilds the inverted lists for the INV search path.
func ReadIndex(r io.Reader, keepINV bool) (*Index, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trieindex: read magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("trieindex: not an index file")
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if version != persistVersion {
		return nil, fmt.Errorf("trieindex: unsupported version %d", version)
	}
	maxLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if maxLen == 0 || maxLen > maxPersistLen {
		return nil, fmt.Errorf("trieindex: max length %d out of range", maxLen)
	}
	nTokens, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nTokens > maxPersistTokens {
		return nil, fmt.Errorf("trieindex: token dictionary size %d out of range", nTokens)
	}
	// Append-grow: each dictionary entry costs at least one input byte (its
	// length varint), so growth is paid for by bytes actually read.
	dict := make([]string, 0, min(nTokens, persistPrealloc))
	for i := uint64(0); i < nTokens; i++ {
		s, err := readString(br)
		if err != nil {
			return nil, err
		}
		dict = append(dict, s)
	}
	total, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	// Intern the dictionary up front so persisted token ids stay valid,
	// then bulk-read each trie.
	ix := newIndex(int(maxLen))
	for _, s := range dict {
		ix.bindToken(ix.in.intern(s), s)
	}
	nTries, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	for t := uint64(0); t < nTries; t++ {
		if err := readArena(br, ix, nTokens); err != nil {
			return nil, fmt.Errorf("trieindex: trie %d: %w", t, err)
		}
	}
	if uint64(ix.total) != total {
		return nil, fmt.Errorf("trieindex: structure count mismatch: header %d, tries %d", total, ix.total)
	}
	if keepINV {
		// Rebuild the inverted lists by walking the arenas in trie order
		// (increasing length, then depth-first).
		path := make([]tokenID, 0, ix.maxLen)
		for _, tr := range ix.tries {
			if tr == nil {
				continue
			}
			tr.flat.walkLeaves(&path, func(p []tokenID) {
				ix.recordInv(append([]tokenID(nil), p...))
			})
		}
		ix.sortInv()
	}
	return ix, nil
}

// readArena loads one trie's arena, deriving first[] from the prefix sum of
// num[] and validating the structural invariants the BFS layout guarantees.
func readArena(br *bufio.Reader, ix *Index, nTokens uint64) error {
	length, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if length == 0 || length > uint64(ix.maxLen) {
		return fmt.Errorf("trie length %d out of range", length)
	}
	if ix.tries[length] != nil {
		return fmt.Errorf("duplicate trie for length %d", length)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if n == 0 || n > maxPersistNodes {
		return fmt.Errorf("node count %d out of range", n)
	}
	if count > n {
		return fmt.Errorf("structure count %d exceeds %d nodes", count, n)
	}
	// Read the child counts with append-grow slices before sizing anything
	// else by n: each count costs at least one input byte, so a header lying
	// about n cannot make us allocate more than the input's own size until
	// the input has actually delivered n varints.
	num := make([]int32, 0, min(n, persistPrealloc))
	first := make([]int32, 0, min(n, persistPrealloc))
	next := int32(1)
	for i := uint64(0); i < n; i++ {
		c, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if c > n {
			return fmt.Errorf("child count %d exceeds %d nodes", c, n)
		}
		first = append(first, next)
		num = append(num, int32(c))
		next += int32(c)
		if next < 0 || uint64(next) > n {
			return fmt.Errorf("child ranges overflow arena (%d > %d)", next, n)
		}
	}
	if uint64(next) != n {
		return fmt.Errorf("child ranges cover %d of %d nodes", next, n)
	}
	ft := &flatTrie{
		tok:   make([]tokenID, n),
		leaf:  make([]bool, n),
		first: first,
		num:   num,
	}
	for i := uint64(1); i < n; i++ {
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if id >= nTokens {
			return fmt.Errorf("token id %d out of range", id)
		}
		ft.tok[i] = tokenID(id)
	}
	bitmap := make([]byte, (n+7)/8)
	if _, err := io.ReadFull(br, bitmap); err != nil {
		return err
	}
	leaves := uint64(0)
	for i := uint64(0); i < n; i++ {
		if bitmap[i/8]&(1<<(i%8)) != 0 {
			ft.leaf[i] = true
			leaves++
		}
	}
	if leaves != count {
		return fmt.Errorf("leaf bitmap has %d leaves, header says %d", leaves, count)
	}
	// The search kernel's node bound counts the tokens below a node as the
	// trie's length minus its depth, so an accepted trie must hold
	// structures of exactly that length: children come after their parent
	// (the BFS layout), no node lies deeper than length, and every leaf
	// lies at depth length.
	depth := make([]int32, n)
	for i := int32(0); i < int32(n); i++ {
		if ft.leaf[i] && depth[i] != int32(length) {
			return fmt.Errorf("leaf %d at depth %d in the length-%d trie", i, depth[i], length)
		}
		if num[i] == 0 {
			continue
		}
		if first[i] <= i || depth[i] == int32(length) {
			return fmt.Errorf("node %d has children out of place in the length-%d trie", i, length)
		}
		for c := first[i]; c < first[i]+num[i]; c++ {
			depth[c] = depth[i] + 1
		}
	}
	ix.tries[length] = &trie{flat: ft, count: int(count)}
	ix.total += int(count)
	return nil
}

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("trieindex: token too long (%d)", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
