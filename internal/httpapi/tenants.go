package httpapi

// tenants.go is the tenant lifecycle API over the schema registry:
//
//	PUT    /api/tenants/{id} — register (or replace) a tenant's schema
//	GET    /api/tenants/{id} — describe one tenant (loads it if evicted)
//	PATCH  /api/tenants/{id} — apply an incremental catalog delta
//	DELETE /api/tenants/{id} — remove the tenant and its persisted catalog
//	GET    /api/tenants      — list known tenants and their residency
//
// Every other endpoint then accepts ?tenant= or the X-SpeakQL-Tenant
// header to correct against that tenant's schema; requests naming no
// tenant go to the seed tenant, preserving the single-tenant API shape.

import (
	"errors"
	"net/http"

	"speakql/internal/literal"
	"speakql/internal/registry"
)

// tenantPutReq is the PUT body: the schema's name lists, mirroring
// literal.NewCatalog plus the optional per-column value domains.
type tenantPutReq struct {
	Tables       []string            `json:"tables"`
	Attributes   []string            `json:"attributes"`
	Values       []string            `json:"values"`
	ColumnValues map[string][]string `json:"column_values"`
}

// writeTenantErr maps registry errors onto API statuses: unknown → 404,
// seed-immutable → 403, bad id → 400, anything else → 500.
func writeTenantErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, registry.ErrUnknownTenant):
		writeErr(w, http.StatusNotFound, err)
	case errors.Is(err, registry.ErrSeedImmutable):
		writeErr(w, http.StatusForbidden, err)
	case errors.Is(err, registry.ErrBadTenantID):
		writeErr(w, http.StatusBadRequest, err)
	default:
		writeErr(w, http.StatusInternalServerError, err)
	}
}

func (s *Server) handleTenantPut(w http.ResponseWriter, r *http.Request) {
	span := s.reg.StartSpan("http.tenant_put")
	defer span.End()
	id := r.PathValue("id")
	var req tenantPutReq
	if err := decode(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	cat := literal.NewCatalog(req.Tables, req.Attributes, req.Values)
	if len(req.ColumnValues) > 0 {
		cat = cat.WithColumnValues(req.ColumnValues)
	}
	t, err := s.tenants.Put(id, cat)
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	s.invalidateMemo(id)
	writeJSON(w, http.StatusOK, tenantSummary(t, true))
}

// invalidateMemo drops the correction memo's entries for a tenant whose
// catalog just changed, counting the drops (server.memo_invalidated).
func (s *Server) invalidateMemo(tenant string) {
	if s.memo == nil {
		return
	}
	if n := s.memo.invalidateTenant(tenant); n > 0 {
		s.reg.Add("server.memo_invalidated", int64(n))
	}
}

func (s *Server) handleTenantGet(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenants.Acquire(r.PathValue("id"))
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, tenantSummary(t, true))
}

func (s *Server) handleTenantPatch(w http.ResponseWriter, r *http.Request) {
	span := s.reg.StartSpan("http.tenant_patch")
	defer span.End()
	id := r.PathValue("id")
	var delta literal.CatalogDelta
	if err := decode(w, r, &delta); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if delta.Empty() {
		writeErr(w, http.StatusBadRequest, errors.New("empty catalog delta"))
		return
	}
	t, stats, err := s.tenants.Update(id, delta)
	if err != nil {
		writeTenantErr(w, err)
		return
	}
	s.invalidateMemo(id)
	resp := tenantSummary(t, true)
	resp["update"] = stats
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.tenants.Delete(id); err != nil {
		writeTenantErr(w, err)
		return
	}
	s.invalidateMemo(id)
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

func (s *Server) handleTenantList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"seed":    s.seedID,
		"tenants": s.tenants.List(),
	})
}

// tenantSummary shapes one tenant for the lifecycle responses: schema
// sizes, not full contents — GET /api/keyboard?tenant= serves the lists.
func tenantSummary(t *registry.Tenant, resident bool) map[string]any {
	tables, attributes, values := t.Catalog.Sizes()
	return map[string]any{
		"id":         t.ID,
		"resident":   resident,
		"tables":     tables,
		"attributes": attributes,
		"values":     values,
	}
}
