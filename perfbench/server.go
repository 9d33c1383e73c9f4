package main

// server.go builds the program under test in this process, with
// speakql-server's defaults except the grammar scale, serves it on a
// loopback port, and tears it down again.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"speakql"
	"speakql/internal/core"
	"speakql/internal/dataset"
	"speakql/internal/grammar"
	"speakql/internal/httpapi"
	"speakql/internal/registry"
	"speakql/internal/sqlengine"
	"speakql/internal/structure"
	"speakql/internal/trieindex"
)

// speakql-server's flag defaults. The benchmark changes only the grammar
// scale (-scale default instead of -scale test).
const (
	serverCacheSize   = 1024 // -cachesize
	serverMemoSize    = 4096 // -memo-size
	serverMaxInflight = 64   // -max-inflight
	serverMaxQueue    = 128  // -max-queue
	serverMaxTenants  = 64   // -max-tenants
	serverTopKLit     = 5
	serverSessionTTL  = 30 * time.Minute // -session-ttl
	serverTimeout     = httpapi.DefaultRequestTimeout
)

// seedTenant is the pinned tenant speakql-server registers for its -db.
const seedTenant = "default"

// validationOff is the -validate off configuration the server defaults to.
func validationOff() core.ValidationConfig {
	mode, _ := core.ParseValidationMode("off")
	return core.ValidationConfig{Mode: mode, MaxRows: core.DefaultValidateMaxRows, Timeout: core.DefaultValidateTimeout}
}

// stack is one complete server: database, engine, registry and HTTP API.
// Instances built from the same index share its frozen tries and nothing
// else: each has its own search LRU, correction memo and sessions.
type stack struct {
	db  *sqlengine.Database
	eng *core.Engine
	reg *registry.Registry
	api *httpapi.Server
	h   http.Handler
}

// newStack constructs a server stack. A nil ix builds the structure index
// from the grammar, as speakql-server does at start-up.
func newStack(gcfg grammar.GenConfig, ix *trieindex.Index) (*stack, error) {
	db := dataset.NewEmployeesDB(dataset.DefaultEmployeesConfig())
	var eng *core.Engine
	if ix == nil {
		var err error
		eng, err = speakql.NewEngine(speakql.Config{
			Grammar: gcfg, Catalog: speakql.CatalogOf(db), StructureCacheSize: serverCacheSize,
		})
		if err != nil {
			return nil, fmt.Errorf("build engine: %w", err)
		}
	} else {
		comp := structure.NewFromIndex(ix, trieindex.Options{}, gcfg)
		eng = core.NewEngineWithComponent(comp, speakql.CatalogOf(db), serverTopKLit)
		eng.EnableSearchCache(serverCacheSize)
	}
	reg, err := registry.New(registry.Config{
		Shared: registry.Shared{
			Structure:    eng.StructureComponent(),
			Cache:        eng.SearchCache(),
			TopKLiterals: serverTopKLit,
			Validation:   validationOff(),
		},
		MaxLive: serverMaxTenants,
	})
	if err != nil {
		return nil, fmt.Errorf("build registry: %w", err)
	}
	reg.SetSeed(seedTenant, eng, eng.Catalog())
	api := httpapi.New(eng, db)
	api.SetRegistry(reg)
	api.SetRequestTimeout(serverTimeout)
	api.SetAdmission(serverMaxInflight, serverMaxQueue)
	api.SetSessionTTL(serverSessionTTL)
	api.SetCorrectionMemo(serverMemoSize)
	return &stack{db: db, eng: eng, reg: reg, api: api, h: api.Handler()}, nil
}

// close stops the API's background work and drops every registered tenant;
// the registry holds nothing else (it has no tenant directory).
func (s *stack) close() {
	s.api.Close()
	for _, info := range s.reg.List() {
		if info.ID != seedTenant {
			_ = s.reg.Delete(info.ID) // unknown-tenant is the only error; nothing to release then
		}
	}
}

// served is a stack behind a loopback listener.
type served struct {
	*stack
	ln      net.Listener
	hs      *http.Server
	base    string
	done    chan struct{} // closed when Serve has returned
	stopped sync.Once
}

// serve listens on 127.0.0.1:0 and serves st until shutdown.
func serve(st *stack) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	sv := &served{stack: st, ln: ln, hs: &http.Server{Handler: st.h},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(sv.done)
		_ = sv.hs.Serve(ln) // always ErrServerClosed after shutdown; other errors surface as client failures
	}()
	return sv, nil
}

// shutdown drains and closes the listener and server, then the stack.
// Safe to call more than once.
func (sv *served) shutdown() {
	sv.stopped.Do(func() {
		sv.api.SetReady(false)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := sv.hs.Shutdown(ctx); err != nil {
			_ = sv.hs.Close() // drain timed out: drop the remaining connections
		}
		<-sv.done
		sv.stack.close()
	})
}

// startServer is one timed set-up: it builds a stack, serves it, waits
// for /readyz and, for a tenant workload, registers the tenant.
func startServer(ctx context.Context, c *client, gcfg grammar.GenConfig, ix *trieindex.Index, w *workload) (*served, time.Duration, error) {
	t0 := time.Now()
	st, err := newStack(gcfg, ix)
	if err != nil {
		return nil, 0, err
	}
	sv, err := serve(st)
	if err != nil {
		st.close()
		return nil, 0, err
	}
	if err := waitReady(ctx, c, sv.base); err != nil {
		sv.shutdown()
		return nil, 0, err
	}
	if w.tenant != "" {
		code, body, err := c.do(ctx, http.MethodPut, sv.base+"/api/tenants/"+w.tenant, w.tenantBody)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
		}
		if err != nil {
			sv.shutdown()
			return nil, 0, fmt.Errorf("register tenant %s: %w", w.tenant, err)
		}
	}
	return sv, time.Since(t0), nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(ctx context.Context, c *client, base string) error {
	for {
		code, _, err := c.do(ctx, http.MethodGet, base+"/readyz", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("wait for /readyz: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// client is the load generator's HTTP client: at most conns connections.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		Proxy:               nil,
	}
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

// do sends one request and reads the whole response.
func (c *client) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out, nil
}

// close drops the client's idle connections so their goroutines exit.
func (c *client) close() { c.tr.CloseIdleConnections() }
