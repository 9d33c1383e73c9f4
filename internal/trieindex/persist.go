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
// Version 3 serializes the arenas directly — per trie its length, its
// structure count, its node count, each node's child count, and tok[1:].
// Because the arena layout is breadth-first, first[] is the running prefix
// sum of the child counts, and one pass over the counts also derives each
// node's depth (readArena); a leaf is a node at depth length, so no leaf
// flag is stored. Cold-start is a few bulk array reads per trie with no
// pointer-trie reconstruction and no re-insertion. The inverted lists are
// not stored, so a loaded index answers an INV search with the trie
// search. It is the only version read: version 1 (each structure as a
// token-id path) and version 2 (which also stored a leaf bitmap) are
// rejected like any other unknown version.

const (
	persistMagic   = "SPQLIX"
	persistVersion = 3

	// Hostile-input ceilings. A persisted header is untrusted until proven
	// otherwise: every count is bounded before it sizes an allocation, and
	// variable-length sections are read with append-grow slices so memory
	// consumed tracks bytes actually present in the input, not bytes a
	// forged header promises.
	maxPersistLen    = 1 << 16   // longest structure any sane corpus holds
	maxPersistTokens = 1<<16 - 1 // tokenID is uint16, and 0xFFFF is unknownID
	maxPersistNodes  = 1 << 28   // per-trie arena nodes (int32 offsets)
	persistPrealloc  = 1 << 12   // cap on header-trusting preallocation
)

// Save serializes the index in the arena format. The inverted lists are not
// persisted.
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

// writeArena emits one trie: its length, structure count, node count, each
// node's child count, and tok[1:]. first[] is implied by the BFS layout and
// not stored.
func writeArena(w *bufio.Writer, length int, tr *trie) error {
	n := len(tr.tok) // includes the root at index 0
	if err := writeUvarint(w, uint64(length)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(tr.count)); err != nil {
		return err
	}
	if err := writeUvarint(w, uint64(n)); err != nil {
		return err
	}
	for i := range n {
		if err := writeUvarint(w, uint64(tr.first[i+1]-tr.first[i])); err != nil {
			return err
		}
	}
	for _, id := range tr.tok[1:] { // root's tok is unused
		if err := writeUvarint(w, uint64(id)); err != nil {
			return err
		}
	}
	return nil
}

// ReadIndex loads an index persisted by Save (the version 3 arena format).
// The index has no inverted lists: an INV search on it takes the trie
// search.
func ReadIndex(r io.Reader) (*Index, error) {
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
	// Intern the dictionary in file order so persisted token ids stay
	// valid, then bulk-read each trie. Each entry costs at least one input
	// byte (its length varint), so the interner grows only with bytes
	// actually read. A repeated entry would fold into its first id and
	// leave the ids after it past the interner and the per-id tables.
	ix := newIndex(int(maxLen))
	for i := uint64(0); i < nTokens; i++ {
		s, err := readString(br)
		if err != nil {
			return nil, err
		}
		id := ix.in.intern(s)
		if uint64(id) != i {
			return nil, fmt.Errorf("trieindex: dictionary entry %d repeats entry %d", i, id)
		}
		ix.bindToken(id, s)
	}
	total, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
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
	return ix, nil
}

// readArena loads one trie's arena. The search kernel's node bound counts
// the tokens below a node as the trie's length minus its depth, and it
// offers a node as a leaf when its depth is the length, so an accepted
// trie must hold structures of exactly that length. One pass over the
// child counts derives first[] (their prefix sum) and each node's depth
// (the BFS layout puts each depth in one contiguous run, whose children
// make the next run), and checks that children come after their parent,
// that no node at depth length has children, and that the nodes at depth
// length number the header's structures.
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
	// Read the child counts into an append-grow slice before sizing
	// anything else by n: each count costs at least one input byte, so a
	// header lying about n cannot make us allocate more than the input's
	// own size until the input has actually delivered n varints.
	first := make([]int32, 0, min(n, persistPrealloc)+1)
	next := int32(1)                       // first[i] for the node being read
	depth, levelEnd := uint64(0), int32(1) // node i's depth; end of its run
	leaves := uint64(0)
	for i := int32(0); uint64(i) < n; i++ {
		c, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if c > n {
			return fmt.Errorf("child count %d exceeds %d nodes", c, n)
		}
		if i == levelEnd { // node i opens the next depth: the last depth's children
			depth++
			levelEnd = next
		}
		if depth == length {
			leaves++
			if c > 0 {
				return fmt.Errorf("node %d at depth %d has children in the length-%d trie", i, depth, length)
			}
		}
		if c > 0 && next <= i {
			return fmt.Errorf("node %d's children come before it", i)
		}
		first = append(first, next)
		next += int32(c)
		if next < 0 || uint64(next) > n {
			return fmt.Errorf("child ranges overflow arena (%d > %d)", next, n)
		}
	}
	if uint64(next) != n {
		return fmt.Errorf("child ranges cover %d of %d nodes", next, n)
	}
	if leaves != count {
		return fmt.Errorf("%d nodes at depth %d, header says %d structures", leaves, length, count)
	}
	tr := &trie{tok: make([]tokenID, n), first: append(first, next), count: int(count)}
	for i := uint64(1); i < n; i++ {
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return err
		}
		if id >= nTokens {
			return fmt.Errorf("token id %d out of range", id)
		}
		tr.tok[i] = tokenID(id)
	}
	ix.tries[length] = tr
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
