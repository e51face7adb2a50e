package main

import (
	"fmt"
	"strings"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/remote"
	"repro/internal/vmanager"
)

// deployConfig is the shape of one fresh deployment. Every cost model
// is iosim's zero model, so the benchmark times real CPU, memory and
// loopback syscalls, never simulated latency.
type deployConfig struct {
	providers  int
	domains    int // failure domains; 0 or 1 is a flat pool
	metaShards int
	coding     string // "rs-k+m", or "" for R=1
	readCache  bool   // router read cache at its default budget
	tcp        bool   // serve all roles from one loopback node
}

// deployment is one booted service. Its wiring mirrors
// cluster.NewVersioning, except that the provider pool is registered
// store by store, so the traced run can wrap each chunk.Store, and the
// version manager can be wrapped before it is served.
type deployment struct {
	vm     remote.VMBackend
	meta   *metadata.Store
	router *provider.Router
	cache  *provider.ReadCache
	reg    *metrics.Registry
	stores []chunk.Store // the raw stores, for space accounting
	node   *remote.Node  // nil in-process
}

func boot(cfg deployConfig, tr *tracer) (*deployment, error) {
	d := &deployment{reg: metrics.NewRegistry()}
	mgr := provider.NewManager()
	for i := 0; i < cfg.providers; i++ {
		s, err := chunk.OpenStore(chunk.ForProvider("mem://", uint32(i)), iosim.NewMeter(iosim.CostModel{}, true))
		if err != nil {
			return nil, fmt.Errorf("open store %d: %w", i, err)
		}
		d.stores = append(d.stores, s)
		mgr.Register(provider.NewInDomain(provider.ID(i), tr.store(s), provider.DomainLabel(i, cfg.providers, cfg.domains)))
	}
	vm := vmanager.NewSharded(iosim.CostModel{}, 1)
	vm.SetMetrics(d.reg)
	d.vm = tr.vmServer(vm)
	d.meta = metadata.NewStore(cfg.metaShards, iosim.CostModel{})
	d.router = provider.NewRouter(mgr)
	d.router.SetMetrics(d.reg)
	if cfg.coding != "" {
		k, m, err := provider.ParseCoding(cfg.coding)
		if err != nil {
			return nil, err
		}
		if err := d.router.SetCoding(k, m); err != nil {
			return nil, err
		}
	}
	if cfg.readCache {
		d.cache = provider.NewReadCache(provider.ReadCacheConfig{})
		d.cache.SetMetrics(d.reg)
		d.router.SetReadCache(d.cache)
	}
	if cfg.tcp {
		node, err := remote.Listen("127.0.0.1:0", remote.Roles{VM: d.vm, Meta: d.meta, Data: d.router, Metrics: d.reg})
		if err != nil {
			return nil, err
		}
		d.node = node
	}
	return d, nil
}

// client is one client's connection to the deployment: its own
// remote.Client over TCP (gob control plane, framed data plane), or
// the in-process services.
type client struct {
	svc  blob.Services
	conn *remote.Client
}

func (d *deployment) dial() (*client, error) {
	if d.node == nil {
		return &client{svc: blob.Services{VM: d.vm, Meta: d.meta, Data: d.router, Cache: d.cache}}, nil
	}
	addr := d.node.Addr()
	conn, err := remote.DialFramed(remote.Endpoints{VM: addr, Meta: addr, Data: addr})
	if err != nil {
		return nil, err
	}
	return &client{svc: conn.Services(), conn: conn}, nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

func (d *deployment) close() {
	if d.node != nil {
		d.node.Close()
	}
}

// storedBytes sums chunk.Store.Usage over every provider.
func (d *deployment) storedBytes() int64 {
	var n int64
	for _, s := range d.stores {
		_, b := s.Usage()
		n += b
	}
	return n
}

// counters reads the cumulative counts the traced run reports: read
// cache hits, misses and evictions, and inbound gob RPCs.
func (d *deployment) counters() (hits, misses, evictions, rpcs int64) {
	if d.cache != nil {
		st := d.cache.Stats()
		hits, misses, evictions = st.Hits, st.Misses, st.Evictions
	}
	for name, v := range d.reg.Snapshot() {
		if strings.HasPrefix(name, "bs_rpc_requests_total") {
			rpcs += int64(v)
		}
	}
	return hits, misses, evictions, rpcs
}
