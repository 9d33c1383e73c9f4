package session

// store.go is the session-handoff layer: a Snapshot is the portable state of
// one interactive session (display tokens, effort log, and — when a
// clause-streaming dictation is open — its lifecycle phase and raw fragment
// sequence), a Store is where replicas of a horizontally scaled serving tier
// keep those snapshots so a session pinned to one process's memory survives
// that process dying, and Restore rebuilds a live Session from a Snapshot on
// whichever replica the router's hash ring now owns it.
//
// The snapshot deliberately carries raw inputs, not engine state: the
// correction pipeline is deterministic and each fragment runs the one-shot
// correction of the accumulated transcript, so replaying the recorded
// fragments through a fresh FragmentSession on the new replica reproduces
// the original candidates and bindings exactly. That keeps
// the codec tiny, versionable, and independent of every internal arena
// layout.
//
// Two stores ship: MemStore (one process, or a chaos test's stand-in for an
// external KV service) and DirStore (a shared directory, the simplest thing
// that lets separate replica processes on one host — or an NFS mount — hand
// sessions to each other). Both round-trip through the codec on every
// Save/Load so a codec regression cannot hide behind pointer sharing.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// SnapshotVersion is the codec version embedded in every encoded snapshot;
// Decode rejects versions it does not understand rather than half-restoring
// a session from a future format.
const SnapshotVersion = 1

// StreamSnapshot is the portable state of a clause-streaming dictation:
// the lifecycle phase and the raw fragments, which together are sufficient
// to rebuild the dictation bit-identically on another replica (see
// Restore).
type StreamSnapshot struct {
	// Phase is the dictation's lifecycle phase: "idle", "streaming" or
	// "finalized".
	Phase string `json:"phase"`
	// Fragments is the raw dictated fragment sequence, in order.
	Fragments []string `json:"fragments,omitempty"`
	// Seq is the last fragment's sequence number (informational; restore
	// derives numbering from the fragment count).
	Seq int `json:"seq,omitempty"`
}

// Snapshot is the portable state of one session: everything a replica needs
// to take the session over, and nothing tied to the process that wrote it.
type Snapshot struct {
	// Version is the codec version (SnapshotVersion).
	Version int `json:"v"`
	// ID is the session's fleet-wide identifier.
	ID string `json:"id"`
	// Tenant is the owning tenant's registry ID ("" = seed tenant).
	Tenant string `json:"tenant,omitempty"`
	// Tokens is the display state (the corrected query shown to the user).
	Tokens []string `json:"tokens,omitempty"`
	// Events is the interaction log (effort accounting must survive handoff;
	// it is the paper's primary metric).
	Events []Event `json:"events,omitempty"`
	// Stream is the latest dictation's checkpoint, nil before the first
	// streamed fragment.
	Stream *StreamSnapshot `json:"stream,omitempty"`
}

// Encode serializes a snapshot for a Store.
func (snap *Snapshot) Encode() ([]byte, error) {
	snap.Version = SnapshotVersion
	return json.Marshal(snap)
}

// DecodeSnapshot parses an encoded snapshot, rejecting unknown codec
// versions, snapshots without an ID (a snapshot that cannot say which
// session it is must never be restored as some other session), and stream
// states Restore cannot rebuild: an unknown phase, or an idle dictation
// with fragments. Restoring either would silently drop the recorded
// fragments.
func DecodeSnapshot(raw []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("session: malformed snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("session: snapshot version %d not supported (have %d)", snap.Version, SnapshotVersion)
	}
	if snap.ID == "" {
		return nil, errors.New("session: snapshot has no session id")
	}
	if st := snap.Stream; st != nil {
		switch st.Phase {
		case phaseIdle:
			if len(st.Fragments) > 0 {
				return nil, fmt.Errorf("session: idle stream carries %d fragments", len(st.Fragments))
			}
		case phaseStreaming, phaseFinalized:
		default:
			return nil, fmt.Errorf("session: unknown stream phase %q", st.Phase)
		}
	}
	return &snap, nil
}

// Store is where session snapshots live between checkpoints — the
// extractable half of the serving tier's session state. Implementations
// must be safe for concurrent use by one process and last-writer-wins
// across processes; Load returns ok=false (not an error) when no snapshot
// exists, and Delete of a missing id is a no-op.
type Store interface {
	// Save persists snap under snap.ID, replacing any previous snapshot.
	Save(snap *Snapshot) error
	// Load retrieves the snapshot for id; ok=false when none exists.
	Load(id string) (snap *Snapshot, ok bool, err error)
	// Delete removes id's snapshot (idempotent). After Delete returns, the
	// session is gone fleet-wide: a later Load must miss until a new Save.
	Delete(id string) error
	// List returns the ids with stored snapshots, in no particular order.
	List() ([]string, error)
}

// MemStore is the in-memory Store: the single-process default, and the
// chaos suite's stand-in for an external KV service shared by in-process
// replicas. The zero value is not usable; construct with NewMemStore.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory snapshot store.
func NewMemStore() *MemStore { return &MemStore{m: map[string][]byte{}} }

// Save implements Store (encoded bytes, so Load exercises the codec).
func (ms *MemStore) Save(snap *Snapshot) error {
	raw, err := snap.Encode()
	if err != nil {
		return err
	}
	ms.mu.Lock()
	ms.m[snap.ID] = raw
	ms.mu.Unlock()
	return nil
}

// Load implements Store.
func (ms *MemStore) Load(id string) (*Snapshot, bool, error) {
	ms.mu.RLock()
	raw, ok := ms.m[id]
	ms.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	snap, err := DecodeSnapshot(raw)
	if err != nil {
		return nil, false, err
	}
	return snap, true, nil
}

// Delete implements Store.
func (ms *MemStore) Delete(id string) error {
	ms.mu.Lock()
	delete(ms.m, id)
	ms.mu.Unlock()
	return nil
}

// List implements Store.
func (ms *MemStore) List() ([]string, error) {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	ids := make([]string, 0, len(ms.m))
	for id := range ms.m {
		ids = append(ids, id)
	}
	return ids, nil
}

// Len reports how many snapshots are stored (tests and stats).
func (ms *MemStore) Len() int {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	return len(ms.m)
}

// snapExt is DirStore's snapshot file extension.
const snapExt = ".session"

// DirStore persists snapshots as one file per session in a shared
// directory — the simplest store separate replica processes can share
// (speakql-server's -session-store flag). Writes are temp-file + rename so
// a reader never sees a torn snapshot; ids are escaped into filenames so a
// hostile session id cannot traverse out of the directory.
type DirStore struct {
	dir string
}

// NewDirStore creates (if needed) and opens a directory-backed store.
func NewDirStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, errors.New("session: DirStore needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("session: store dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// escapeID maps a session id to a safe filename component (hex-escapes
// everything outside [A-Za-z0-9._-], and "." / ".." cannot result).
func escapeID(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-' || c == '_':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02x", c)
		}
	}
	if b.Len() == 0 {
		return "%empty"
	}
	return b.String()
}

func (ds *DirStore) path(id string) string {
	return filepath.Join(ds.dir, escapeID(id)+snapExt)
}

// Save implements Store (temp + rename, never a torn read).
func (ds *DirStore) Save(snap *Snapshot) error {
	raw, err := snap.Encode()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(ds.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("session: store save: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("session: store save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("session: store save: %w", err)
	}
	if err := os.Rename(name, ds.path(snap.ID)); err != nil {
		os.Remove(name)
		return fmt.Errorf("session: store save: %w", err)
	}
	return nil
}

// Load implements Store.
func (ds *DirStore) Load(id string) (*Snapshot, bool, error) {
	raw, err := os.ReadFile(ds.path(id))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("session: store load: %w", err)
	}
	snap, err := DecodeSnapshot(raw)
	if err != nil {
		return nil, false, err
	}
	return snap, true, nil
}

// Delete implements Store.
func (ds *DirStore) Delete(id string) error {
	err := os.Remove(ds.path(id))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("session: store delete: %w", err)
	}
	return nil
}

// List implements Store (ids are unescaped back from filenames only as far
// as the store needs — the escaped form round-trips through path()).
func (ds *DirStore) List() ([]string, error) {
	ents, err := os.ReadDir(ds.dir)
	if err != nil {
		return nil, fmt.Errorf("session: store list: %w", err)
	}
	var ids []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapExt) {
			continue
		}
		ids = append(ids, unescapeID(strings.TrimSuffix(name, snapExt)))
	}
	return ids, nil
}

// unescapeID reverses escapeID.
func unescapeID(s string) string {
	if s == "%empty" {
		return ""
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			var c int
			if _, err := fmt.Sscanf(s[i+1:i+3], "%02x", &c); err == nil {
				b.WriteByte(byte(c))
				i += 2
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
