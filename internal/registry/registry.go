// Package registry turns the single-schema engine into a multi-tenant
// service: one process-wide shared half — the schema-agnostic skeleton trie
// arenas, searcher pools, and structure-search LRU, frozen once — serves
// every tenant, while each tenant owns only the schema-dependent half: its
// literal catalog with the Metaphone groups and BK-tree arenas.
//
// The split is sound because structure determination's input is the masked
// transcript plus k and nothing else (the grammar corpus is fixed per
// process), so trie search results — and the SearchLRU memoizing them —
// are valid for every tenant; only literal determination consults
// per-tenant state, and a tenant's catalog is frozen at build time
// (incremental updates install a new catalog copy-on-write, see
// literal.ApplyDelta), so a *Tenant handed to a request stays valid for
// that request's lifetime no matter what the registry does next.
//
// Residency is a bounded LRU: tenants beyond MaxLive are evicted — their
// arenas dropped — and lazily rebuilt on next use from their tenant file,
// a JSON list of the names the catalog holds, through literal.NewCatalog.
// Loads are deduplicated singleflight-style so a thundering herd of
// requests for a cold tenant builds its catalog exactly once. Every
// Put/Update writes through to disk before the tenant becomes visible, so
// eviction never needs to write and a crash never loses an acknowledged
// catalog. The seed tenant (the process's original database) is pinned: it
// never counts against MaxLive and is never evicted or persisted.
package registry

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"speakql/internal/core"
	"speakql/internal/faultinject"
	"speakql/internal/literal"
	"speakql/internal/obs"
	"speakql/internal/sqlengine"
	"speakql/internal/structure"
)

// Shared is the process-wide, schema-agnostic half of the engine, built
// once and referenced by every tenant's engine.
type Shared struct {
	// Structure is the frozen skeleton-trie component (arenas + searcher
	// pools). Required.
	Structure *structure.Component
	// Cache is the optional structure-search memo shared by all tenants; it
	// must already be installed on Structure (core.Engine.EnableSearchCache
	// does both for the seed engine).
	Cache *core.SearchLRU
	// TopKLiterals is the per-placeholder candidate count for tenant
	// engines (default 5).
	TopKLiterals int
	// Validation configures the validation stage for tenant engines
	// (DESIGN.md §15). Non-seed tenants are registered as bare catalogs —
	// table/attribute/value name lists with no rows — so their bind schema
	// is synthesized with sqlengine.NewSchemaDatabase. The seed tenant keeps
	// whatever validation its engine was built with (the server binds it
	// against the demo database).
	Validation core.ValidationConfig
}

// Tenant is one resident tenant: an engine wired to the shared structure
// component and the tenant's own frozen catalog. Immutable after build —
// in-flight requests holding a *Tenant are unaffected by eviction,
// deletion, or catalog updates (which install a new *Tenant).
type Tenant struct {
	// ID is the tenant identifier (see ValidateID).
	ID string
	// Engine corrects transcripts against this tenant's catalog.
	Engine *core.Engine
	// Catalog is the tenant's literal catalog (also reachable via Engine).
	Catalog *literal.Catalog
}

// Config configures New.
type Config struct {
	// Shared is the schema-agnostic half every tenant engine references.
	Shared Shared
	// MaxLive bounds resident non-seed tenants; past it the least recently
	// used tenant is evicted (requires Dir, so it can be reloaded).
	// <= 0 means unbounded residency.
	MaxLive int
	// Dir is where tenant catalogs persist (created if missing). Empty
	// disables persistence — tenants then live only in memory and eviction
	// is disabled regardless of MaxLive, because evicting without a disk
	// copy would silently destroy the tenant.
	Dir string
}

// ErrUnknownTenant is returned by Acquire and friends for an ID that was
// never Put (or was deleted). The HTTP layer maps it to 404.
var ErrUnknownTenant = errors.New("registry: unknown tenant")

// ErrSeedImmutable is returned for attempts to overwrite, update, or
// delete the pinned seed tenant through the tenant lifecycle.
var ErrSeedImmutable = errors.New("registry: seed tenant is immutable")

// loadCall is one in-flight lazy load; concurrent Acquires for the same
// tenant wait on done instead of re-reading the file (singleflight).
type loadCall struct {
	done chan struct{}
	t    *Tenant
	err  error
}

// liveEntry is one resident tenant in the LRU list.
type liveEntry struct {
	id string
	t  *Tenant
}

// Registry manages tenant lifecycle: bounded residency, write-through
// persistence, lazy loads with dedup, and eviction callbacks. Safe for
// concurrent use.
type Registry struct {
	shared Shared
	dir    string
	max    int

	// writeMu serializes Put, Update and Delete: each pairs a tenant-file
	// write or removal with the matching change to known, and two of them
	// interleaving on one tenant would leave a registered tenant without a
	// file (or a file without a tenant).
	writeMu sync.Mutex

	mu      sync.Mutex
	seed    *Tenant
	order   []*liveEntry          // LRU order, most recent first
	live    map[string]*liveEntry // resident non-seed tenants
	known   map[string]bool       // every undeleted tenant ID (resident or on disk)
	loading map[string]*loadCall
	deletes uint64 // Delete calls so far; lets a failed load spot a racing delete

	evictHook func(id string) // called (outside mu) after evict or delete
}

// New builds a registry, creating Dir if needed and indexing the tenant
// files already present so they lazy-load on first use.
func New(cfg Config) (*Registry, error) {
	if cfg.Shared.Structure == nil {
		return nil, errors.New("registry: Shared.Structure is required")
	}
	if cfg.Shared.TopKLiterals <= 0 {
		cfg.Shared.TopKLiterals = 5
	}
	r := &Registry{
		shared:  cfg.Shared,
		dir:     cfg.Dir,
		max:     cfg.MaxLive,
		live:    map[string]*liveEntry{},
		known:   map[string]bool{},
		loading: map[string]*loadCall{},
	}
	if r.dir != "" {
		if err := os.MkdirAll(r.dir, 0o755); err != nil {
			return nil, fmt.Errorf("registry: create tenant dir: %w", err)
		}
		removeStaleTemps(r.dir)
		names, err := os.ReadDir(r.dir)
		if err != nil {
			return nil, fmt.Errorf("registry: scan tenant dir: %w", err)
		}
		for _, de := range names {
			id, ok := strings.CutSuffix(de.Name(), tenantExt)
			if ok && !de.IsDir() && ValidateID(id) == nil {
				r.known[id] = true
			}
		}
	}
	return r, nil
}

// SetSeed pins the process's original engine as the default tenant: never
// evicted, never persisted, immutable through the tenant lifecycle. Call
// before serving.
func (r *Registry) SetSeed(id string, eng *core.Engine, cat *literal.Catalog) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seed = &Tenant{ID: id, Engine: eng, Catalog: cat}
	r.known[id] = true
}

// SetEvictHook installs fn, called with the tenant ID after every eviction
// or deletion — outside the registry's state lock, so the hook may take its
// own locks or call Acquire, Known or List (the HTTP layer closes the
// tenant's session event feeds here). It must not call Put, Update or
// Delete: one of those may be the caller running it. Call before serving.
func (r *Registry) SetEvictHook(fn func(id string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictHook = fn
}

// Known reports whether id names an undeleted tenant — the seed, or one
// registered here or discovered in the tenant directory — without loading
// or discovering anything.
func (r *Registry) Known(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.known[id]
}

// SeedID returns the pinned seed tenant's ID ("" when none is set).
func (r *Registry) SeedID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seed == nil {
		return ""
	}
	return r.seed.ID
}

// buildTenant assembles the cheap per-tenant half around the shared half.
func (r *Registry) buildTenant(id string, cat *literal.Catalog) *Tenant {
	eng := core.NewEngineWithComponent(r.shared.Structure, cat, r.shared.TopKLiterals)
	if r.shared.Cache != nil {
		eng.AdoptSearchCache(r.shared.Cache)
	}
	if cfg := r.shared.Validation; cfg.Mode != "" && cfg.Mode != core.ValidationOff {
		eng.SetValidation(cfg, sqlengine.NewSchemaDatabase(id, cat.Tables(), cat.Attributes()))
	}
	return &Tenant{ID: id, Engine: eng, Catalog: cat}
}

// Put registers (or replaces) a tenant with the given catalog, persisting
// it before it becomes visible. Overflowing residents are evicted. The
// returned tenant is resident and most recently used.
func (r *Registry) Put(id string, cat *literal.Catalog) (*Tenant, error) {
	if err := ValidateID(id); err != nil {
		return nil, err
	}
	if r.isSeed(id) {
		return nil, ErrSeedImmutable
	}
	t := r.buildTenant(id, cat)
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	if err := r.persist(t); err != nil {
		obs.Add("registry.persist_failures", 1)
		return nil, err
	}
	r.mu.Lock()
	r.known[id] = true
	evicted := r.insertLocked(t)
	hook := r.evictHook
	r.mu.Unlock()
	obs.Add("registry.puts", 1)
	r.notifyEvicted(evicted, hook)
	return t, nil
}

// Acquire returns the tenant, lazily loading it from disk when evicted.
// Concurrent acquires of a cold tenant share one load. The returned tenant
// is immutable; callers may use it for the rest of the request even if it
// is evicted or deleted meanwhile.
//
// With a shared Dir, an id this process has never seen is checked against
// the directory before being rejected: Put persists a catalog before it
// becomes visible, so a file on disk is a tenant some replica registered
// after this one scanned the directory at startup. This is what makes a
// fleet of replicas sharing one -tenant-dir agree on the tenant set without
// any registration broadcast.
func (r *Registry) Acquire(id string) (*Tenant, error) {
	r.mu.Lock()
	if r.seed != nil && id == r.seed.ID {
		t := r.seed
		r.mu.Unlock()
		return t, nil
	}
	if le, ok := r.live[id]; ok {
		r.touchLocked(le)
		t := le.t
		r.mu.Unlock()
		obs.Add("registry.warm_hits", 1)
		return t, nil
	}
	if r.dir == "" {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	if !r.known[id] {
		if ValidateID(id) != nil || !fileExists(r.path(id)) {
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
		}
		r.known[id] = true
		obs.Add("registry.dir_discoveries", 1)
	}
	if lc, ok := r.loading[id]; ok {
		r.mu.Unlock()
		obs.Add("registry.load_dedup", 1)
		<-lc.done
		return lc.t, lc.err
	}
	lc := &loadCall{done: make(chan struct{})}
	r.loading[id] = lc
	var t *Tenant
	var err error
	for {
		deletes := r.deletes
		r.mu.Unlock()
		t, err = r.load(id)
		r.mu.Lock()
		// A load that failed while a Delete removed the tenant's file, for a
		// tenant a Put has since registered again, read nothing current:
		// load the new file instead of reporting the stale failure.
		if err == nil || !r.known[id] || r.deletes == deletes {
			break
		}
	}
	delete(r.loading, id)
	var evicted []*liveEntry
	if !r.known[id] {
		// Deleted while loading: do not resurrect it, and report unknown
		// even if the load itself failed (the delete may have removed the
		// file out from under the open).
		err = fmt.Errorf("%w: %q", ErrUnknownTenant, id)
		t = nil
	} else if err == nil {
		evicted = r.insertLocked(t)
	}
	hook := r.evictHook
	lc.t, lc.err = t, err
	r.mu.Unlock()
	close(lc.done)
	r.notifyEvicted(evicted, hook)
	if err != nil {
		obs.Add("registry.load_failures", 1)
		return nil, err
	}
	obs.Add("registry.cold_loads", 1)
	return t, nil
}

// Update applies an incremental catalog delta: literal.ApplyDelta rebuilds
// only the category sets it touches, the result is persisted, and a new
// immutable tenant replaces the old one. Requests holding the old tenant
// keep their pre-update catalog.
func (r *Registry) Update(id string, d literal.CatalogDelta) (*Tenant, literal.UpdateStats, error) {
	if r.isSeed(id) {
		return nil, literal.UpdateStats{}, ErrSeedImmutable
	}
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	old, err := r.Acquire(id)
	if err != nil {
		return nil, literal.UpdateStats{}, err
	}
	cat, stats := old.Catalog.ApplyDelta(d)
	t := r.buildTenant(id, cat)
	if err := r.persist(t); err != nil {
		obs.Add("registry.persist_failures", 1)
		return nil, stats, err
	}
	r.mu.Lock()
	evicted := r.insertLocked(t)
	hook := r.evictHook
	r.mu.Unlock()
	obs.Add("registry.updates", 1)
	r.notifyEvicted(evicted, hook)
	return t, stats, nil
}

// Delete removes a tenant: resident state, disk file, and (via the evict
// hook) its sessions' event feeds. Idempotent per ErrUnknownTenant.
func (r *Registry) Delete(id string) error {
	if r.isSeed(id) {
		return ErrSeedImmutable
	}
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	r.mu.Lock()
	if !r.known[id] {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	delete(r.known, id)
	r.deletes++
	if le, ok := r.live[id]; ok {
		delete(r.live, id)
		r.removeOrderLocked(le)
	}
	hook := r.evictHook
	// Remove the file before unlocking: Acquire rediscovers unknown ids from
	// the directory under mu, and must not find a deleted tenant's file.
	var rmErr error
	if r.dir != "" {
		if err := os.Remove(r.path(id)); err != nil && !os.IsNotExist(err) {
			rmErr = fmt.Errorf("registry: remove tenant file: %w", err)
		}
	}
	r.mu.Unlock()
	if rmErr != nil {
		return rmErr
	}
	obs.Add("registry.deletes", 1)
	if hook != nil {
		hook(id)
	}
	return nil
}

// load rebuilds one tenant from its tenant file, re-encoding every name;
// the registry fault stage fires here so chaos tests can rehearse failed
// lazy loads.
func (r *Registry) load(id string) (*Tenant, error) {
	if err := faultinject.Fire(faultinject.StageRegistry); err != nil {
		return nil, fmt.Errorf("registry: load %q: %w", id, err)
	}
	path := r.path(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry: load %q: %w", id, err)
	}
	cat, err := decodeTenantFile(data, id)
	if err != nil {
		return nil, fmt.Errorf("registry: load %q from %s: %w", id, path, err)
	}
	return r.buildTenant(id, cat), nil
}

// insertLocked makes t resident (most recently used), replacing any older
// resident build of the same tenant, and returns the entries evicted to
// respect MaxLive. Caller holds mu and must run notifyEvicted afterwards.
func (r *Registry) insertLocked(t *Tenant) []*liveEntry {
	if le, ok := r.live[t.ID]; ok {
		le.t = t
		r.touchLocked(le)
		return nil
	}
	le := &liveEntry{id: t.ID, t: t}
	r.live[t.ID] = le
	r.order = append(r.order, le)
	r.touchLocked(le)
	if r.max <= 0 || r.dir == "" {
		return nil
	}
	var evicted []*liveEntry
	for len(r.order) > r.max {
		tail := r.order[len(r.order)-1]
		r.order[len(r.order)-1] = nil // the backing array must not keep an evicted tenant alive
		r.order = r.order[:len(r.order)-1]
		delete(r.live, tail.id)
		evicted = append(evicted, tail)
	}
	return evicted
}

// notifyEvicted counts evictions and runs the hook outside the lock. The
// registry fault stage fires per eviction (error faults are counted, never
// block the eviction — there is nothing to roll back: the disk copy was
// written at Put/Update time).
func (r *Registry) notifyEvicted(evicted []*liveEntry, hook func(string)) {
	for _, le := range evicted {
		if err := faultinject.Fire(faultinject.StageRegistry); err != nil {
			obs.Add("registry.evict_faults", 1)
		}
		obs.Add("registry.evictions", 1)
		if hook != nil {
			hook(le.id)
		}
	}
}

// touchLocked moves le to the front of the LRU order in place, so a warm
// Acquire does not allocate.
func (r *Registry) touchLocked(le *liveEntry) {
	for i, e := range r.order {
		if e == le {
			copy(r.order[1:i+1], r.order[:i])
			r.order[0] = le
			return
		}
	}
}

func (r *Registry) removeOrderLocked(le *liveEntry) {
	for i, e := range r.order {
		if e == le {
			r.order = slices.Delete(r.order, i, i+1) // zeroes the vacated tail slot
			return
		}
	}
}

func (r *Registry) isSeed(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seed != nil && id == r.seed.ID
}

func (r *Registry) path(id string) string {
	return filepath.Join(r.dir, id+tenantExt)
}

// fileExists reports whether path names an existing regular file.
func fileExists(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

// Info describes one tenant for the listing API.
type Info struct {
	// ID is the tenant identifier.
	ID string `json:"id"`
	// Resident reports whether the tenant's arenas are currently in memory.
	Resident bool `json:"resident"`
	// Seed marks the pinned default tenant.
	Seed bool `json:"seed,omitempty"`
}

// List returns every known tenant, seed first, the rest sorted by ID.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.known))
	if r.seed != nil {
		out = append(out, Info{ID: r.seed.ID, Resident: true, Seed: true})
	}
	ids := make([]string, 0, len(r.known))
	for id := range r.known {
		if r.seed != nil && id == r.seed.ID {
			continue
		}
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort; listings are small
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		_, resident := r.live[id]
		out = append(out, Info{ID: id, Resident: resident})
	}
	return out
}

// Stats is the registry block of GET /api/stats.
type Stats struct {
	// Resident counts non-seed tenants currently in memory.
	Resident int `json:"resident"`
	// Capacity is the MaxLive bound (0 = unbounded).
	Capacity int `json:"capacity"`
	// Known counts every undeleted tenant, resident or on disk (the seed
	// included once set).
	Known int `json:"known"`
	// Loading counts lazy loads in flight right now.
	Loading int `json:"loading"`
	// Persistent reports whether a tenant dir is configured (without one,
	// eviction is disabled and tenants are memory-only).
	Persistent bool `json:"persistent"`
}

// Stats reports current residency; the monotonic counters live in the obs
// registry under the registry. prefix.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Resident:   len(r.live),
		Capacity:   r.max,
		Known:      len(r.known),
		Loading:    len(r.loading),
		Persistent: r.dir != "",
	}
}
