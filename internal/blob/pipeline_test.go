package blob

import (
	"bytes"
	"testing"

	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// TestPipelinedWriteMatchesBuffered checks a pipelined write produces
// snapshots indistinguishable from buffered ones, including partial
// overwrites that exercise leaf shadowing across both paths.
func TestPipelinedWriteMatchesBuffered(t *testing.T) {
	b := testBlob(t)
	base := fillVec(t, extent.List{{Offset: 0, Length: 8000}}, 1)
	if _, err := b.WriteList(base, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	over := fillVec(t, extent.List{{Offset: 500, Length: 300}, {Offset: 3000, Length: 2500}}, 2)
	v, err := b.WriteList(over, WriteOptions{Pipelined: true, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(v, 0, 8000)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{1}, 8000)
	copy(want[500:], bytes.Repeat([]byte{2}, 300))
	copy(want[3000:], bytes.Repeat([]byte{2}, 2500))
	if !bytes.Equal(got, want) {
		t.Fatal("pipelined overwrite diverges from expected image")
	}
}

// TestPipelinedWriteFailureRetiresTicket checks the failure path: a
// chunk-store fault mid-write must not publish the version, must not
// stall publication of later writes, and must leave earlier snapshots
// readable. The pipelined builder has stored nodes by then, so
// retirement goes through Abort rather than a tombstone.
func TestPipelinedWriteFailureRetiresTicket(t *testing.T) {
	mgr, _, faults, _ := provider.NewPool(provider.PoolConfig{N: 1, Faulty: true})
	svc := Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(4, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	}
	b, err := Create(svc, 1, segtree.Geometry{Capacity: 1 << 20, Page: 1024})
	if err != nil {
		t.Fatal(err)
	}
	good := fillVec(t, extent.List{{Offset: 0, Length: 4096}}, 1)
	v1, err := b.WriteList(good, WriteOptions{Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}

	faults[0].FailNextPuts(100)
	bad := fillVec(t, extent.List{{Offset: 0, Length: 4096}}, 2)
	if _, err := b.WriteList(bad, WriteOptions{Pipelined: true}); err == nil {
		t.Fatal("write through injected faults must fail")
	}
	faults[0].FailNextPuts(0)

	// The failed version is invisible and later writes publish fine.
	next := fillVec(t, extent.List{{Offset: 1024, Length: 1024}}, 3)
	v3, err := b.WriteList(next, WriteOptions{Pipelined: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(v3, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{1}, 4096)
	copy(want[1024:], bytes.Repeat([]byte{3}, 1024))
	if !bytes.Equal(got, want) {
		t.Fatal("snapshot after failed pipelined write diverges (torn write published?)")
	}
	old, err := b.ReadAt(v1, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, bytes.Repeat([]byte{1}, 4096)) {
		t.Fatal("earlier snapshot corrupted by failed pipelined write")
	}
}
