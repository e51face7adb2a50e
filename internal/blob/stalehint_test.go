package blob

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// recordingData wraps a DataService and records the replica hint each
// GetFrom call carried, so tests can see which hint the blob used.
type recordingData struct {
	DataService
	mu    sync.Mutex
	hints [][]provider.ID
}

func (r *recordingData) GetFrom(replicas []provider.ID, key chunk.Key, off, length int64) ([]byte, []provider.ID, error) {
	r.mu.Lock()
	r.hints = append(r.hints, append([]provider.ID(nil), replicas...))
	r.mu.Unlock()
	return r.DataService.GetFrom(replicas, key, off, length)
}

// TestStaleHintFallbackAndRefresh is the stale-hint window regression
// test: after Repair moves a chunk's copies, metadata refs still point
// at the old replica set forever (refs are immutable). A read through
// the stale hint must succeed via the placement-map fallback, learn
// the fresh replica set, and cache it so the NEXT read goes straight
// to the live copies instead of re-walking the dead hint.
func TestStaleHintFallbackAndRefresh(t *testing.T) {
	mgr, _, _, _ := provider.NewPool(provider.PoolConfig{N: 4})
	router := provider.NewRouter(mgr)
	router.SetReplicas(2)
	rec := &recordingData{DataService: router}
	svc := Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: rec,
	}
	b, err := Create(svc, 1, segtree.Geometry{Capacity: 64 << 10, Page: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("stale-hint"), 100)
	v, err := b.Write(0, payload, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The write produced one chunk on two providers; that set is baked
	// into the metadata ref.
	keys := router.Keys()
	if len(keys) != 1 {
		t.Fatalf("expected 1 placed chunk, got %d", len(keys))
	}
	key := keys[0]
	orig, _ := router.Locate(key)
	if len(orig) != 2 {
		t.Fatalf("replica set %v, want 2 copies", orig)
	}

	// Lose one holder, repair (copies move to a new provider), then
	// lose the second original holder: every provider named by the
	// metadata hint is now dead, but the data is alive elsewhere.
	if err := mgr.SetDown(orig[0], true); err != nil {
		t.Fatal(err)
	}
	if st := router.Repair(); st.Repaired != st.Degraded || st.Lost > 0 {
		t.Fatalf("repair: %+v", st)
	}
	if err := mgr.SetDown(orig[1], true); err != nil {
		t.Fatal(err)
	}
	fresh, _ := router.Locate(key)

	// Read 1: stale hint -> placement fallback must serve it.
	got, err := b.ReadAt(v, 0, int64(len(payload)))
	if err != nil {
		t.Fatalf("read via stale hint: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("stale-hint read returned wrong data")
	}
	// ... and the fresh set must now be cached on the blob handle.
	cached, ok := b.FreshHint(key)
	if !ok || fmt.Sprint(cached) != fmt.Sprint(fresh) {
		t.Fatalf("cached hint = %v,%v, want %v", cached, ok, fresh)
	}

	// Read 2: must be served with the refreshed hint, not the stale
	// metadata one.
	if _, err := b.ReadAt(v, 0, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.hints) != 2 {
		t.Fatalf("expected 2 GetFrom calls, saw %d", len(rec.hints))
	}
	staleHint, refreshedHint := rec.hints[0], rec.hints[1]
	if fmt.Sprint(staleHint) != fmt.Sprint(orig) {
		t.Fatalf("first read used hint %v, want the metadata (stale) set %v", staleHint, orig)
	}
	if fmt.Sprint(refreshedHint) != fmt.Sprint(fresh) {
		t.Fatalf("second read used hint %v, want the refreshed set %v", refreshedHint, fresh)
	}
}

// TestSharedCacheHintLifecycle covers the shared-cache replacement for
// the old per-handle hint maps: two handles on the same blob share one
// deployment cache, so a hint one handle learns serves the other; a
// placement change invalidates it for both; and the cache's byte bound
// holds however many hints the handles learn.
func TestSharedCacheHintLifecycle(t *testing.T) {
	mgr, _, _, _ := provider.NewPool(provider.PoolConfig{N: 4})
	router := provider.NewRouter(mgr)
	router.SetReplicas(2)
	cache := provider.NewReadCache(provider.ReadCacheConfig{Shards: 4, MaxBytes: 256 << 10})
	router.SetReadCache(cache)
	svc := Services{
		VM:    vmanager.New(iosim.CostModel{}),
		Meta:  metadata.NewStore(2, iosim.CostModel{}),
		Data:  router,
		Cache: cache,
	}
	b1, err := Create(svc, 1, segtree.Geometry{Capacity: 64 << 10, Page: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("shared"), 512)
	v, err := b1.Write(0, payload, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Open(svc, 1)
	if err != nil {
		t.Fatal(err)
	}

	keys := router.Keys()
	if len(keys) != 1 {
		t.Fatalf("expected 1 placed chunk, got %d", len(keys))
	}
	key := keys[0]
	orig, _ := router.Locate(key)

	// Rot the metadata hint: kill one holder, repair, kill the other.
	if err := mgr.SetDown(orig[0], true); err != nil {
		t.Fatal(err)
	}
	if st := router.Repair(); st.Repaired != st.Degraded || st.Lost > 0 {
		t.Fatalf("repair: %+v", st)
	}
	if err := mgr.SetDown(orig[1], true); err != nil {
		t.Fatal(err)
	}
	fresh, _ := router.Locate(key)

	// Handle 1 reads through the stale metadata hint and learns the
	// fresh set; because the hint store is the SHARED cache, handle 2
	// sees it without ever having read.
	if _, err := b1.ReadAt(v, 0, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if cached, ok := b2.FreshHint(key); !ok || fmt.Sprint(cached) != fmt.Sprint(fresh) {
		t.Fatalf("handle 2 hint = %v,%v, want shared %v", cached, ok, fresh)
	}

	// The next placement change invalidates the shared hint for both
	// handles at once — the rot the per-handle maps used to keep.
	if err := mgr.SetDown(fresh[0], true); err != nil {
		t.Fatal(err)
	}
	if st := router.Repair(); st.Lost > 0 {
		t.Fatalf("repair: %+v", st)
	}
	if _, ok := b1.FreshHint(key); ok {
		t.Fatal("handle 1 still holds a hint the repair invalidated")
	}
	if _, ok := b2.FreshHint(key); ok {
		t.Fatal("handle 2 still holds a hint the repair invalidated")
	}
	// ... and reads keep working through the re-learned placement.
	got, err := b2.ReadAt(v, 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("post-invalidation read returned wrong data")
	}
}

// TestPrivateHintCacheBounded covers the no-shared-cache fallback: a
// handle built without Services.Cache stores its learned hints in a
// private BOUNDED cache — the unbounded per-handle map this replaced
// grew one entry per chunk ever read, forever.
func TestPrivateHintCacheBounded(t *testing.T) {
	mgr, _, _, _ := provider.NewPool(provider.PoolConfig{N: 4})
	router := provider.NewRouter(mgr)
	router.SetReplicas(2)
	svc := Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: router,
	}
	b, err := Create(svc, 1, segtree.Geometry{Capacity: 64 << 10, Page: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Flood the private store with far more hints than its byte budget
	// holds: the bound must win.
	var key chunk.Key
	for i := 0; i < 100000; i++ {
		key = chunk.Key{Blob: 1, Version: uint64(i), Index: uint32(i)}
		b.cacheHint(key, []provider.ID{0, 1})
	}
	if b.hints.Bytes() > privateHintCacheBytes {
		t.Fatalf("private hint cache grew to %d bytes, bound is %d", b.hints.Bytes(), privateHintCacheBytes)
	}
	if st := b.hints.Stats(); st.Evictions == 0 {
		t.Fatalf("100k hints never evicted: %+v", st)
	}
	// The most recent hint survives the flood.
	if _, ok := b.FreshHint(key); !ok {
		t.Fatal("freshest hint evicted")
	}
}
