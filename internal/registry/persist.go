package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"speakql/internal/literal"
)

// tenantFile is the JSON form of Dir/<id>.tenant: the names a tenant's
// catalog holds, not the phonetic index derived from them. A load rebuilds
// the index with literal.NewCatalog, so a reloaded tenant always votes with
// the running build's Metaphone. The embedded ID lets a load cross-check
// that a file really belongs to the tenant it is named for (a mis-renamed
// or copied file fails loudly instead of serving another tenant's schema).
// Only the catalog persists; the engine, sessions, and streams are rebuilt
// or recreated on demand — they are exactly the state the LRU is licensed
// to throw away.
type tenantFile struct {
	Version      int                 `json:"version"`
	ID           string              `json:"id"`
	Tables       []string            `json:"tables"`
	Attributes   []string            `json:"attributes"`
	Values       []string            `json:"values"`
	ColumnValues map[string][]string `json:"column_values,omitempty"`
}

const (
	// tenantVersion 3 is the JSON name-list format; version 2 was a binary
	// image of the phonetic index and no longer loads.
	tenantVersion = 3
	tenantExt     = ".tenant"
	maxTenantID   = 64
)

// ErrBadTenantID wraps every ValidateID failure, so callers can map the
// whole class (HTTP 400) without matching messages.
var ErrBadTenantID = errors.New("registry: bad tenant id")

// ValidateID accepts 1–64 chars of [a-zA-Z0-9_-]; the ID doubles as a file
// name, so path separators and dots are rejected outright.
func ValidateID(id string) error {
	if len(id) == 0 || len(id) > maxTenantID {
		return fmt.Errorf("%w: must be 1-%d characters", ErrBadTenantID, maxTenantID)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == '-' {
			continue
		}
		return fmt.Errorf("%w: %q may only contain [a-zA-Z0-9_-]", ErrBadTenantID, id)
	}
	return nil
}

// decodeTenantFile parses the tenant file of tenant id and rebuilds its
// catalog. Unknown fields, another format version, and an embedded id that
// is invalid or differs from id are errors.
func decodeTenantFile(data []byte, id string) (*literal.Catalog, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f tenantFile
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if f.Version != tenantVersion {
		return nil, fmt.Errorf("unsupported tenant file version %d, want %d", f.Version, tenantVersion)
	}
	if err := ValidateID(f.ID); err != nil {
		return nil, err
	}
	if f.ID != id {
		return nil, fmt.Errorf("tenant file for %q claims id %q", id, f.ID)
	}
	return literal.NewCatalog(f.Tables, f.Attributes, f.Values).WithColumnValues(f.ColumnValues), nil
}

// persist writes the tenant's names to disk atomically (temp file +
// rename), so readers never observe a torn file and a crash mid-write
// leaves the previous version intact. No-op without a tenant dir.
func (r *Registry) persist(t *Tenant) error {
	if r.dir == "" {
		return nil
	}
	cat := t.Catalog
	data, err := json.Marshal(tenantFile{
		Version:      tenantVersion,
		ID:           t.ID,
		Tables:       cat.Tables(),
		Attributes:   cat.Attributes(),
		Values:       cat.Values(),
		ColumnValues: cat.ColumnValues(),
	})
	if err != nil {
		return fmt.Errorf("registry: persist %q: %w", t.ID, err)
	}
	f, err := os.CreateTemp(r.dir, "."+t.ID+".tmp-*")
	if err != nil {
		return fmt.Errorf("registry: persist %q: %w", t.ID, err)
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, r.path(t.ID))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("registry: persist %q: %w", t.ID, err)
	}
	return nil
}

// removeStaleTemps clears temp files left by a crash mid-persist; New runs
// it before scanning the tenant dir.
func removeStaleTemps(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, ".*.tmp-*"))
	for _, m := range matches {
		os.Remove(m)
	}
}
