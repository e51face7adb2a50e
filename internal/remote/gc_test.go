package remote

import (
	"strings"
	"testing"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// startGCNode boots a combined node running the garbage collector,
// exactly as `blobseerd -gc` wires it.
func startGCNode(t *testing.T, retainLast int) (Endpoints, *core.Reaper) {
	t.Helper()
	vm := vmanager.New(iosim.CostModel{})
	meta := metadata.NewStore(2, iosim.CostModel{})
	mgr, _, _, _ := provider.NewPool(provider.PoolConfig{N: 3})
	router := provider.NewRouter(mgr)
	router.SetReplicas(2)
	reaper := core.NewReaper(router, core.ReaperConfig{RetainLast: retainLast, DeletesPerTick: 8})
	reaper.SetCatalog(blob.Services{VM: vm, Meta: meta, Data: router}, vm)
	node, err := Listen("127.0.0.1:0", Roles{VM: vm, Meta: meta, Data: router, Reaper: reaper})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	addr := node.Addr()
	return Endpoints{VM: addr, Meta: addr, Data: addr}, reaper
}

func TestLifecycleAndGCOverRPC(t *testing.T) {
	ep, _ := startGCNode(t, 0)
	c := dialClient(t, ep)
	b, err := blob.Create(c.Services(), 1, segtree.Geometry{Capacity: 1 << 20, Page: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		vec, err := extent.NewVec(extent.List{{Offset: 0, Length: 4096}}, make([]byte, 4096))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.WriteList(vec, blob.WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Pin over RPC, retention skips the pin, drop refuses it.
	if err := c.Pin(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.DropVersion(1, 2); !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("drop pinned over RPC = %v", err)
	}
	dropped, err := c.Retain(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 2 { // v1, v3; v2 pinned, v4 latest
		t.Fatalf("retain dropped %v", dropped)
	}
	if err := c.Unpin(1, 2); err != nil {
		t.Fatal(err)
	}
	info, err := c.GCInfo(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Pending) != 2 || info.Published != 4 {
		t.Fatalf("gc info over RPC = %+v", info)
	}

	// Usage before and after a synchronous GC pass.
	before, err := c.Usage()
	if err != nil {
		t.Fatal(err)
	}
	var bytesBefore int64
	for _, u := range before {
		bytesBefore += u.Bytes
	}
	st, err := c.GC(true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Passes == 0 || st.Reclaimed != 2 || st.Deleted == 0 {
		t.Fatalf("gc pass over RPC = %+v", st)
	}
	after, err := c.Usage()
	if err != nil {
		t.Fatal(err)
	}
	var bytesAfter int64
	for _, u := range after {
		bytesAfter += u.Bytes
	}
	if bytesAfter >= bytesBefore {
		t.Fatalf("usage did not shrink: %d -> %d", bytesBefore, bytesAfter)
	}
	// Dropped versions are unreadable; the survivors read fine.
	if _, err := b.ReadAt(1, 0, 16); err == nil {
		t.Fatal("dropped version readable over RPC")
	}
	if _, err := b.ReadAt(4, 0, 4096); err != nil {
		t.Fatal(err)
	}
	// net/rpc flattens errors to strings, so only non-nil-ness and the
	// message are checkable across the wire.
	if err := c.MarkReclaimed(1, 4); err == nil || !strings.Contains(err.Error(), "not pending") {
		t.Fatalf("MarkReclaimed of retained version = %v", err)
	}
}

func TestGCRPCRequiresReaper(t *testing.T) {
	_, ep := startNode(t)
	c := dialClient(t, ep)
	if _, err := c.GC(false); err == nil || !strings.Contains(err.Error(), "-gc") {
		t.Fatalf("GC on non-gc node = %v", err)
	}
	// Usage works on any data node.
	if _, err := c.Usage(); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonStyleAutoRetention(t *testing.T) {
	ep, reaper := startGCNode(t, 2)
	c := dialClient(t, ep)
	// The client creates the blob over RPC; the reaper must discover
	// it through its catalog at pass start.
	b, err := blob.Create(c.Services(), 9, segtree.Geometry{Capacity: 1 << 20, Page: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		vec, err := extent.NewVec(extent.List{{Offset: 0, Length: 4096}}, make([]byte, 4096))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.WriteList(vec, blob.WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	st := reaper.Pass()
	if st.AutoDropped != 3 || st.Reclaimed != 3 {
		t.Fatalf("auto retention over catalog = %+v", st)
	}
	vs, err := b.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 { // 0 + newest 2
		t.Fatalf("versions after auto retention = %v", vs)
	}
}
