// Package cluster wires complete deployments of both storage systems —
// the versioning service (version manager + metadata shards + data
// providers) and the Lustre-like locking file system — either
// unmetered for fast tests or with the synthetic Grid'5000-style cost
// models for experiments. Examples, commands and the benchmark harness
// all build their systems here.
package cluster

import (
	"fmt"
	"time"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/iosim"
	"repro/internal/lockfs"
	"repro/internal/metadata"
	"repro/internal/metrics"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// Env describes the simulated hardware: storage elements and their
// cost models. The zero value of the model fields means "free"
// (unit-test speed); Metered() fills in the representative Grid'5000
// models.
type Env struct {
	// Providers is the number of data providers (versioning) or OSTs
	// (locking baseline); both systems always get the same number so
	// comparisons are fair.
	Providers int
	// MetaShards is the number of metadata providers (versioning only).
	MetaShards int
	// ChunkSize is the stripe unit: the versioning page size and the
	// locking file system's stripe size.
	ChunkSize int64
	// Replicas is the replication degree R of the versioning data
	// layer: every chunk is stored on R distinct providers. 0 or 1
	// means no replication. Must not exceed Providers.
	Replicas int
	// Domains splits the data providers into that many failure domains
	// (racks/zones): equal contiguous blocks labeled zone0, zone1, ...
	// Replica placement then spreads each chunk's R copies across
	// distinct domains — with Domains >= Replicas the spread is an
	// invariant (writes fail typed rather than co-locate), so losing
	// one whole domain never loses a published byte. 0 or 1 keeps the
	// flat single-domain pool of earlier PRs.
	Domains int
	// WriteQuorum is how many of the R copies (or, with Coding, the
	// k+m fragments) must land for a write to commit. 0 selects the
	// default of R-1 (minimum 1) — with Coding, k+m-1 (minimum k) —
	// which lets a write survive the mid-flight loss of one provider.
	WriteQuorum int
	// Coding selects erasure-coded chunk placement instead of R-way
	// replication: "rs-k+m" (e.g. "rs-4+2") stripes every chunk into k
	// data + m parity fragments on k+m distinct providers, surviving
	// any m fragment losses at a storage overhead of (k+m)/k instead
	// of R. Mutually exclusive with Replicas > 1; requires k+m <=
	// Providers. Empty keeps replication. Boot-time only — a pool
	// written under one mode must not be reopened under the other.
	Coding string

	// SelfHeal enables the autonomous repair loop: an error-driven
	// provider HealthMonitor wired into the router plus a core.Healer
	// (background scrubber + bounded read-repair queue). Off by
	// default: deployments then behave exactly as before, with
	// replication managed administratively (bsctl down/repair).
	SelfHeal bool
	// FailThreshold is the consecutive-error count that marks a
	// provider down (SelfHeal; 0 = default 3).
	FailThreshold int
	// Probation is how long a detected-down provider sits out before
	// health probes may revive it (SelfHeal; 0 = default 2s).
	Probation time.Duration
	// ScrubRate caps chunk replica verifications per healer tick
	// (SelfHeal; 0 = default 64).
	ScrubRate int
	// RepairRate caps re-replications per healer tick (SelfHeal;
	// 0 = default 4).
	RepairRate int
	// RepairQueue bounds the repair queue depth (SelfHeal; 0 = 256).
	RepairQueue int
	// FaultInjection wraps every provider's chunk store in a
	// chunk.FaultStore (exposed as Versioning.Faults) so tests can
	// kill a machine at the store level — the failure the health
	// monitor must detect from errors alone.
	FaultInjection bool
	// ScrubNewestFirst makes the scrubber walk versions newest-first
	// (recently written versions are the most likely under-replicated
	// after a loss); default is the historical oldest-first order.
	ScrubNewestFirst bool

	// GC enables the version-lifecycle garbage collector (core.Reaper):
	// dropped versions' exclusively referenced chunks are deleted from
	// every reachable replica at a bounded rate. Off by default —
	// versions then behave exactly as before (retained forever unless
	// the operator drops them, and even then nothing is reclaimed).
	GC bool
	// RetainLast, with GC, applies the retention policy automatically:
	// each blob keeps its newest RetainLast versions (0 = manual drops
	// only).
	RetainLast int
	// GCRate caps chunk deletions per reaper tick (GC; 0 = default 4).
	GCRate int
	// GCWalkRate caps retained-ref walk steps per reaper tick (GC;
	// 0 = default 64).
	GCWalkRate int
	// GCQueue bounds the delete queue depth (GC; 0 = 256).
	GCQueue int

	// ReadCache enables the hot-path read tier's shared bounded cache:
	// the router serves repeated chunk reads and fresh replica-set
	// hints from it, invalidating on every placement change, blob
	// handles share it for hints, and (with GC on) the reaper's hint
	// walk rewrites stale metadata hints into it. Off by default.
	ReadCache bool
	// CacheBytes bounds the read cache footprint (ReadCache;
	// 0 = default 64 MiB).
	CacheBytes int64
	// CacheShards is the cache's fixed shard count, rounded up to a
	// power of two (ReadCache; 0 = default 16).
	CacheShards int
	// LocalDomain, when set, declares the failure domain this
	// deployment's reads originate from: the router prefers
	// same-domain replicas and counts cross-domain bytes avoided
	// (Router.ReadLocality). Works with or without ReadCache.
	LocalDomain string

	// StoreURL selects the chunk store backend of every data provider
	// via the chunk backend factory: "mem://" (the default when empty),
	// "disk:///path" (one per-provider subdirectory under path),
	// "null://" (discard payloads, bench-only), optionally wrapped with
	// the "fault+" prefix. FaultInjection composes with any backend —
	// the factory's store is wrapped in a chunk.FaultStore and the
	// handles exposed as Versioning.Faults.
	StoreURL string

	DataModel iosim.CostModel // per provider / OST
	MetaModel iosim.CostModel // per metadata shard
	CtrlModel iosim.CostModel // version manager, lock manager, detector RPCs

	// VMBatch configures the version manager's group-commit pipeline
	// (versioning deployments only). The zero value disables batching:
	// one control round trip per request, the pre-batching behavior.
	VMBatch vmanager.BatchConfig
	// VMShards partitions the control plane: blobs are spread across
	// that many independent version-manager shards by a stable hash of
	// the blob ID, each shard its own control server (own lock, own
	// exclusive meter, own group-commit combiners). 0 or 1 keeps the
	// single manager of earlier PRs.
	VMShards int
}

// Default returns the unmetered environment used by tests.
func Default() Env {
	return Env{Providers: 8, MetaShards: 8, ChunkSize: 64 << 10}
}

// Metered returns the experiment environment: every storage server
// charges a per-op latency and sustains finite bandwidth, matching the
// relative magnitudes of a cluster testbed (100µs/op and 1 GiB/s per
// data server, 20µs per metadata/control RPC).
func Metered() Env {
	e := Default()
	e.DataModel = iosim.DefaultNetwork()
	e.MetaModel = iosim.CostModel{PerOp: 20 * time.Microsecond, BytesPerSec: 4 << 30}
	e.CtrlModel = iosim.CostModel{PerOp: 50 * time.Microsecond, BytesPerSec: 16 << 30}
	return e
}

// Validate checks the environment.
func (e Env) Validate() error {
	if e.Providers < 1 {
		return fmt.Errorf("cluster: need at least one provider, got %d", e.Providers)
	}
	if e.MetaShards < 1 {
		return fmt.Errorf("cluster: need at least one metadata shard, got %d", e.MetaShards)
	}
	if e.ChunkSize < 1 {
		return fmt.Errorf("cluster: chunk size %d must be positive", e.ChunkSize)
	}
	if e.Domains < 0 {
		return fmt.Errorf("cluster: negative domain count %d", e.Domains)
	}
	if e.Domains > e.Providers {
		return fmt.Errorf("cluster: %d domains exceed %d providers", e.Domains, e.Providers)
	}
	if err := provider.ValidatePlacement(e.Providers, e.Replicas, e.Coding, e.WriteQuorum); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if e.VMShards < 0 {
		return fmt.Errorf("cluster: negative vmanager shard count %d", e.VMShards)
	}
	if e.StoreURL != "" {
		if err := chunk.ValidStoreURL(e.StoreURL); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
	}
	return nil
}

// Versioning is a full in-process deployment of the paper's storage
// service. Health and Healer are non-nil only when Env.SelfHeal is
// set; Faults is non-nil only with Env.FaultInjection.
type Versioning struct {
	VM        *vmanager.Sharded
	Meta      *metadata.Store
	Providers *provider.Manager
	Router    *provider.Router
	Health    *provider.HealthMonitor
	Healer    *core.Healer
	Reaper    *core.Reaper
	Cache     *provider.ReadCache // non-nil only with Env.ReadCache
	Faults    []*chunk.FaultStore
	// Metrics is the deployment-wide registry every component reports
	// into: vmanager ticket/commit/publish, chunk put/get, cache,
	// repair and reap counters plus their latency histograms. Always
	// non-nil.
	Metrics *metrics.Registry
	env     Env
}

// NewVersioning boots the service.
func NewVersioning(env Env) (*Versioning, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	mgr, _, faults, err := provider.NewPool(provider.PoolConfig{
		N:        env.Providers,
		Domains:  env.Domains,
		Model:    env.DataModel,
		StoreURL: env.StoreURL,
		Faulty:   env.FaultInjection,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: open store %q: %w", env.StoreURL, err)
	}
	reg := metrics.NewRegistry()
	vm := vmanager.NewSharded(env.CtrlModel, max(env.VMShards, 1))
	vm.SetBatching(env.VMBatch)
	vm.SetMetrics(reg)
	router := provider.NewRouter(mgr)
	router.SetMetrics(reg)
	router.SetReplicas(env.Replicas)
	if env.Coding != "" {
		k, m, _ := provider.ParseCoding(env.Coding) // Validate already vetted it
		if err := router.SetCoding(k, m); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	router.SetWriteQuorum(env.WriteQuorum)
	if env.LocalDomain != "" {
		router.SetLocalDomain(env.LocalDomain)
	}
	var cache *provider.ReadCache
	if env.ReadCache {
		cache = provider.NewReadCache(provider.ReadCacheConfig{
			Shards:   env.CacheShards,
			MaxBytes: env.CacheBytes,
		})
		cache.SetMetrics(reg)
		router.SetReadCache(cache)
	}
	v := &Versioning{
		VM:        vm,
		Meta:      metadata.NewStore(env.MetaShards, env.MetaModel),
		Providers: mgr,
		Router:    router,
		Cache:     cache,
		Faults:    faults,
		Metrics:   reg,
		env:       env,
	}
	if env.SelfHeal {
		v.Health = provider.NewHealthMonitor(mgr, provider.HealthConfig{
			Threshold: env.FailThreshold,
			Probation: env.Probation,
		})
		router.SetHealthMonitor(v.Health)
		order := core.OldestFirst
		if env.ScrubNewestFirst {
			order = core.NewestFirst
		}
		v.Healer = core.NewHealer(router, v.Health, core.HealerConfig{
			ScrubChunksPerTick: env.ScrubRate,
			RepairsPerTick:     env.RepairRate,
			QueueDepth:         env.RepairQueue,
			Order:              order,
		})
		v.Healer.SetMetrics(reg)
		router.SetDegradedHandler(v.Healer.EnqueueRepair)
	}
	if env.GC {
		v.Reaper = core.NewReaper(router, core.ReaperConfig{
			RetainLast:        env.RetainLast,
			DeletesPerTick:    env.GCRate,
			WalkChunksPerTick: env.GCWalkRate,
			QueueDepth:        env.GCQueue,
		})
		v.Reaper.SetMetrics(reg)
		if cache != nil {
			v.Reaper.SetReadCache(cache)
		}
	}
	return v, nil
}

// Services returns the client-facing service bundle.
func (v *Versioning) Services() blob.Services {
	return blob.Services{VM: v.VM, Meta: v.Meta, Data: v.Router, Cache: v.Cache}
}

// Backend creates a versioning backend over a new blob sized to cover
// span bytes (rounded up to a power-of-two multiple of the chunk size).
// With SelfHeal on, the new blob's published versions join the
// healer's scrub walk; with GC on, they join the reaper's collection
// walk too.
func (v *Versioning) Backend(blobID uint64, span int64) (*core.VersioningBackend, error) {
	geo := segtree.Geometry{Capacity: CapacityFor(span, v.env.ChunkSize), Page: v.env.ChunkSize}
	be, err := core.NewVersioning(v.Services(), blobID, geo)
	if err != nil {
		return nil, err
	}
	be.SetMetrics(v.Metrics)
	if v.Healer != nil {
		v.Healer.RegisterBlob(be.Blob())
	}
	if v.Reaper != nil {
		v.Reaper.RegisterBlob(be.Blob())
	}
	return be, nil
}

// Lustre is a deployment of the locking baseline.
type Lustre struct {
	FS  *lockfs.FS
	env Env
}

// NewLustre boots the locking file system with the same storage
// resources as the versioning deployment would get.
func NewLustre(env Env) (*Lustre, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	fs, err := lockfs.New(lockfs.Config{
		OSTs:       env.Providers,
		StripeSize: env.ChunkSize,
		OSTModel:   env.DataModel,
		LockModel:  env.CtrlModel,
	})
	if err != nil {
		return nil, err
	}
	return &Lustre{FS: fs, env: env}, nil
}

// File creates the shared file.
func (l *Lustre) File(name string) (*lockfs.File, error) {
	return l.FS.Create(name)
}

// CapacityFor rounds span up to the smallest power-of-two multiple of
// page that covers it.
func CapacityFor(span, page int64) int64 {
	if span < page {
		span = page
	}
	pages := (span + page - 1) / page
	p := int64(1)
	for p < pages {
		p <<= 1
	}
	return p * page
}
