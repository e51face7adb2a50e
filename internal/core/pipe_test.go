package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

func batchedBackend(t *testing.T, cfg vmanager.BatchConfig) *VersioningBackend {
	t.Helper()
	vm := vmanager.New(iosim.CostModel{})
	vm.SetBatching(cfg)
	mgr, _, _, _ := provider.NewPool(provider.PoolConfig{N: 4})
	svc := blob.Services{VM: vm, Meta: metadata.NewStore(4, iosim.CostModel{}), Data: provider.NewRouter(mgr)}
	be, err := NewVersioning(svc, 1, segtree.Geometry{Capacity: 1 << 20, Page: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return be
}

// A pipe full of writes must land exactly like sequential WriteList
// calls: all versions published, last writer wins per byte in ticket
// order, stats counted.
func TestWritePipeFlushPublishesAll(t *testing.T) {
	for _, mb := range []int{1, 8} {
		t.Run(fmt.Sprintf("maxbatch=%d", mb), func(t *testing.T) {
			be := batchedBackend(t, vmanager.BatchConfig{MaxBatch: mb, MaxDelay: 200 * time.Microsecond})
			pipe := be.NewPipe(4)
			const n = 20
			// Disjoint extents: pipelined writes race for tickets, so
			// only non-overlapping data is order-independent.
			for i := 0; i < n; i++ {
				data := bytes.Repeat([]byte{byte(i + 1)}, 512)
				vec, err := extent.NewVec(extent.List{{Offset: int64(i) * 512, Length: 512}}, data)
				if err != nil {
					t.Fatal(err)
				}
				if err := pipe.Submit(vec); err != nil {
					t.Fatalf("Submit %d: %v", i, err)
				}
			}
			ver, err := pipe.Flush()
			if err != nil {
				t.Fatalf("Flush: %v", err)
			}
			if ver != n {
				t.Fatalf("flushed version %d, want %d", ver, n)
			}
			latest, err := be.Latest()
			if err != nil {
				t.Fatal(err)
			}
			if latest != n {
				t.Fatalf("latest published %d, want %d", latest, n)
			}
			got, _, err := be.ReadList(extent.List{{Offset: 0, Length: n * 512}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if b := got[i*512+256]; b != byte(i+1) {
					t.Fatalf("byte of write %d = %d, want %d", i, b, i+1)
				}
			}
			if s := be.Stats(); s.Writes != n {
				t.Fatalf("stats writes = %d, want %d", s.Writes, n)
			}
		})
	}
}

// Concurrent submitters sharing one pipe must be safe and all get
// published.
func TestWritePipeConcurrentSubmitters(t *testing.T) {
	be := batchedBackend(t, vmanager.BatchConfig{MaxBatch: 8, MaxDelay: 100 * time.Microsecond})
	pipe := be.NewPipe(8)
	const writers = 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte(w + 1)}, 256)
			vec, err := extent.NewVec(extent.List{{Offset: int64(w) * 128, Length: 256}}, data)
			if err != nil {
				t.Error(err)
				return
			}
			if err := pipe.Submit(vec); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}(w)
	}
	wg.Wait()
	ver, err := pipe.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if ver != writers {
		t.Fatalf("flushed version %d, want %d", ver, writers)
	}
}

// An empty pipe must flush cleanly, and the pipe must be reusable.
func TestWritePipeEmptyFlushAndReuse(t *testing.T) {
	be := backend(t)
	pipe := be.NewPipe(2)
	if ver, err := pipe.Flush(); err != nil || ver != 0 {
		t.Fatalf("empty Flush = (%d, %v), want (0, nil)", ver, err)
	}
	data := []byte{1, 2, 3, 4}
	vec, _ := extent.NewVec(extent.List{{Offset: 0, Length: 4}}, data)
	if err := pipe.Submit(vec); err != nil {
		t.Fatal(err)
	}
	if ver, err := pipe.Flush(); err != nil || ver != 1 {
		t.Fatalf("Flush = (%d, %v), want (1, nil)", ver, err)
	}
}

// A failing write must surface on Flush, and Flush must clear the error
// for subsequent use.
func TestWritePipeSurfacesErrors(t *testing.T) {
	be := backend(t)
	pipe := be.NewPipe(2)
	// Write beyond capacity: ticket assignment fails.
	huge, _ := extent.NewVec(extent.List{{Offset: 1 << 30, Length: 4}}, []byte{1, 2, 3, 4})
	if err := pipe.Submit(huge); err != nil {
		t.Fatalf("Submit itself should not fail: %v", err)
	}
	if _, err := pipe.Flush(); err == nil {
		t.Fatal("Flush swallowed the write error")
	}
	// Pipe recovers after the failed flush.
	ok, _ := extent.NewVec(extent.List{{Offset: 0, Length: 4}}, []byte{1, 2, 3, 4})
	if err := pipe.Submit(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
}

// Regression: Flush on error used to return immediately without waiting
// for publication of the train's surviving writes, so a successfully
// committed peer write was in an unknown publication state while the
// caller handled the error. The fault injected here is an older ticket
// held by a concurrent writer (publication is in ticket order, so the
// pipe's committed write cannot publish until that ticket resolves):
// Flush must block until the surviving maxVer is published even though
// another write in the train failed.
func TestWritePipeFlushWaitsOnErrorPath(t *testing.T) {
	vm := vmanager.New(iosim.CostModel{})
	mgr, _, _, _ := provider.NewPool(provider.PoolConfig{N: 4})
	svc := blob.Services{VM: vm, Meta: metadata.NewStore(4, iosim.CostModel{}), Data: provider.NewRouter(mgr)}
	be, err := NewVersioning(svc, 1, segtree.Geometry{Capacity: 1 << 20, Page: 1024})
	if err != nil {
		t.Fatal(err)
	}

	// A concurrent writer holds the oldest ticket: nothing newer can
	// publish until it completes or aborts.
	held, err := vm.AssignTicket(1, extent.List{{Offset: 0, Length: 4}})
	if err != nil {
		t.Fatal(err)
	}

	pipe := be.NewPipe(2)
	// Surviving write: commits a version newer than the held ticket.
	ok, _ := extent.NewVec(extent.List{{Offset: 0, Length: 4}}, []byte{1, 2, 3, 4})
	if err := pipe.Submit(ok); err != nil {
		t.Fatal(err)
	}
	// Failing write: beyond capacity, ticket assignment rejects it.
	huge, _ := extent.NewVec(extent.List{{Offset: 1 << 30, Length: 4}}, []byte{1, 2, 3, 4})
	if err := pipe.Submit(huge); err != nil {
		t.Fatalf("Submit itself should not fail: %v", err)
	}

	// Resolve the held ticket only after a clear delay. A Flush that
	// skips the publication wait returns long before this fires.
	released := make(chan struct{})
	go func() {
		time.Sleep(300 * time.Millisecond)
		close(released)
		if err := vm.Abort(1, held.Version); err != nil {
			t.Errorf("abort held ticket: %v", err)
		}
	}()

	ver, err := pipe.Flush()
	if err == nil {
		t.Fatal("Flush swallowed the write error")
	}
	select {
	case <-released:
	default:
		t.Fatal("Flush returned before the blocking ticket resolved: it did not wait for publication of the surviving write")
	}
	if ver == 0 {
		t.Fatal("Flush lost the surviving version")
	}
	info, err := vm.LatestPublished(1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version < uint64(ver) {
		t.Fatalf("surviving write v%d not published at Flush return (latest %d)", ver, info.Version)
	}
}
