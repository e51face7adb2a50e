package blob

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

func testServices() Services {
	mgr, _, _, _ := provider.NewPool(provider.PoolConfig{N: 4})
	return Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(4, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	}
}

func testBlob(t *testing.T) *Blob {
	t.Helper()
	b, err := Create(testServices(), 1, segtree.Geometry{Capacity: 1 << 20, Page: 1024})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fillVec(t *testing.T, l extent.List, fill byte) extent.Vec {
	t.Helper()
	buf := make([]byte, l.TotalLength())
	for i := range buf {
		buf[i] = fill
	}
	v, err := extent.NewVec(l, buf)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCreateOpen(t *testing.T) {
	svc := testServices()
	geo := segtree.Geometry{Capacity: 1 << 16, Page: 512}
	b1, err := Create(svc, 7, geo)
	if err != nil {
		t.Fatal(err)
	}
	if b1.ID() != 7 || b1.Geometry() != geo {
		t.Fatalf("handle = %d %+v", b1.ID(), b1.Geometry())
	}
	b2, err := Open(svc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Geometry() != geo {
		t.Fatalf("Open geometry = %+v", b2.Geometry())
	}
	if _, err := Open(svc, 99); !errors.Is(err, vmanager.ErrUnknownBlob) {
		t.Fatalf("Open unknown err = %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	b := testBlob(t)
	data := []byte("the paper's storage backend")
	v, err := b.Write(4000, data, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadAt(v, 4000, int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read = %q", got)
	}
}

func TestWriteListNonContiguous(t *testing.T) {
	b := testBlob(t)
	l := extent.List{{Offset: 0, Length: 100}, {Offset: 5000, Length: 200}, {Offset: 100000, Length: 300}}
	v, err := b.WriteList(fillVec(t, l, 0xC3), WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadList(v, l)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range got {
		if x != 0xC3 {
			t.Fatalf("byte %d = %x", i, x)
		}
	}
	// Gap must be zero.
	gap, err := b.ReadAt(v, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range gap {
		if x != 0 {
			t.Fatalf("gap byte %d = %x", i, x)
		}
	}
}

func TestWriteListValidation(t *testing.T) {
	b := testBlob(t)
	// Self-overlapping write vector is rejected.
	l := extent.List{{Offset: 0, Length: 100}, {Offset: 50, Length: 100}}
	buf := make([]byte, l.TotalLength())
	if _, err := b.WriteList(extent.Vec{Extents: l, Buf: buf}, WriteOptions{}); err == nil {
		t.Fatal("self-overlapping write must fail")
	}
	// Mismatched buffer.
	if _, err := b.WriteList(extent.Vec{Extents: extent.List{{Offset: 0, Length: 10}}, Buf: make([]byte, 5)}, WriteOptions{}); err == nil {
		t.Fatal("bad buffer must fail")
	}
	// Empty write.
	if _, err := b.WriteList(extent.Vec{}, WriteOptions{}); !errors.Is(err, vmanager.ErrEmptyWrite) {
		t.Fatalf("empty write err = %v", err)
	}
}

func TestVersionsAccumulate(t *testing.T) {
	b := testBlob(t)
	for i := 0; i < 5; i++ {
		if _, err := b.Write(int64(i)*100, []byte{byte(i)}, WriteOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	vs, err := b.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 6 { // versions 0..5
		t.Fatalf("versions = %v", vs)
	}
	info, err := b.Latest()
	if err != nil || info.Version != 5 {
		t.Fatalf("latest = %+v, %v", info, err)
	}
}

func TestSizeTracking(t *testing.T) {
	b := testBlob(t)
	v1, _ := b.Write(100, make([]byte, 50), WriteOptions{})
	if sz, _ := b.Size(v1); sz != 150 {
		t.Fatalf("size v1 = %d", sz)
	}
	v2, _ := b.Write(0, make([]byte, 10), WriteOptions{})
	if sz, _ := b.Size(v2); sz != 150 {
		t.Fatalf("size v2 = %d (must not shrink)", sz)
	}
}

func TestOldSnapshotsSurviveNewWrites(t *testing.T) {
	b := testBlob(t)
	v1, _ := b.Write(0, []byte{1, 1, 1, 1}, WriteOptions{})
	v2, _ := b.Write(1, []byte{2, 2}, WriteOptions{})
	got1, err := b.ReadAt(v1, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got1, []byte{1, 1, 1, 1}) {
		t.Fatalf("v1 = %v", got1)
	}
	got2, err := b.ReadAt(v2, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, []byte{1, 2, 2, 1}) {
		t.Fatalf("v2 = %v", got2)
	}
}

func TestReadLatest(t *testing.T) {
	b := testBlob(t)
	b.Write(0, []byte{9}, WriteOptions{})
	data, v, err := b.ReadLatest(extent.List{{Offset: 0, Length: 1}})
	if err != nil || v != 1 || data[0] != 9 {
		t.Fatalf("ReadLatest = %v v%d %v", data, v, err)
	}
}

func TestReadUnpublishedVersionFails(t *testing.T) {
	b := testBlob(t)
	if _, err := b.ReadAt(3, 0, 1); !errors.Is(err, vmanager.ErrUnknownVersion) {
		t.Fatalf("err = %v", err)
	}
}

func TestNoWaitEventuallyPublishes(t *testing.T) {
	b := testBlob(t)
	v, err := b.Write(0, []byte{5}, WriteOptions{NoWait: true})
	if err != nil {
		t.Fatal(err)
	}
	// A single writer's version is published as soon as Complete ran,
	// which happened before WriteList returned.
	got, err := b.ReadAt(v, 0, 1)
	if err != nil || got[0] != 5 {
		t.Fatalf("read = %v, %v", got, err)
	}
}

// TestConcurrentOverlappingWriteList is the core atomicity smoke test:
// many goroutines concurrently write overlapping non-contiguous
// vectors; each published snapshot must equal one writer's data in the
// overlap (no interleaving), and the final snapshot must equal the
// last-published writer's pattern across its whole vector.
func TestConcurrentOverlappingWriteList(t *testing.T) {
	b := testBlob(t)
	const writers = 16
	// All writers use the same extent list => total overlap.
	l := extent.List{{Offset: 0, Length: 512}, {Offset: 2048, Length: 512}, {Offset: 8192, Length: 512}}
	versions := make([]uint64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, l.TotalLength())
			for i := range buf {
				buf[i] = byte(w + 1)
			}
			vec, _ := extent.NewVec(l, buf)
			v, err := b.WriteList(vec, WriteOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			versions[w] = v
		}(w)
	}
	wg.Wait()

	// Every snapshot 1..writers must be entirely one writer's bytes.
	byVersion := make(map[uint64]byte)
	for w, v := range versions {
		byVersion[v] = byte(w + 1)
	}
	for v := uint64(1); v <= writers; v++ {
		got, err := b.ReadList(v, l)
		if err != nil {
			t.Fatal(err)
		}
		// Within the written extents, snapshot v must show the bytes
		// of the writer holding ticket v (full overlap => last write
		// wins for the whole list).
		want := byVersion[v]
		for i, x := range got {
			if x != want {
				t.Fatalf("snapshot %d byte %d = %d, want %d (interleaved write!)", v, i, x, want)
			}
		}
	}
}

// TestConcurrentDisjointWriters checks that concurrent writers to
// disjoint regions all land intact.
func TestConcurrentDisjointWriters(t *testing.T) {
	b := testBlob(t)
	const writers = 8
	const span = 4096
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, span)
			for i := range buf {
				buf[i] = byte(w + 1)
			}
			if _, err := b.Write(int64(w)*span, buf, WriteOptions{}); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	info, _ := b.Latest()
	got, err := b.ReadAt(info.Version, 0, writers*span)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < span; i++ {
			if got[w*span+i] != byte(w+1) {
				t.Fatalf("writer %d byte %d = %d", w, i, got[w*span+i])
			}
		}
	}
}

func TestStripingAcrossProviders(t *testing.T) {
	mgr, _, _, _ := provider.NewPool(provider.PoolConfig{N: 4})
	svc := Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(2, iosim.CostModel{}),
		Data: provider.NewRouter(mgr),
	}
	b, err := Create(svc, 1, segtree.Geometry{Capacity: 1 << 16, Page: 1024})
	if err != nil {
		t.Fatal(err)
	}
	// 8 pages of data must spread over all 4 providers.
	if _, err := b.Write(0, make([]byte, 8*1024), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, p := range mgr.Providers() {
		if p.Store().Count() != 2 {
			t.Fatalf("provider %d holds %d chunks, want 2", p.ID(), p.Store().Count())
		}
	}
}

// segtreeGeometry is a bench/test helper constructing a geometry.
func segtreeGeometry(capacity, page int64) segtree.Geometry {
	return segtree.Geometry{Capacity: capacity, Page: page}
}

func TestDiffAPI(t *testing.T) {
	b := testBlob(t)
	v1, _ := b.Write(0, []byte{1, 1, 1, 1}, WriteOptions{})
	v2, _ := b.Write(2, []byte{2, 2}, WriteOptions{})
	d, err := b.Diff(v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	changed := extent.List{{Offset: 2, Length: 2}}
	if !changed.CoveredBy(d) {
		t.Fatalf("diff %v does not cover the change", d)
	}
	// Diff against an unpublished version fails.
	if _, err := b.Diff(v1, 99); err == nil {
		t.Fatal("diff of unknown version must fail")
	}
}

// replicatedServices builds a deployment with replication degree R,
// returning the manager so tests can kill providers.
func replicatedServices(r int) (Services, *provider.Manager) {
	mgr, _, _, _ := provider.NewPool(provider.PoolConfig{N: 4})
	router := provider.NewRouter(mgr)
	router.SetReplicas(r)
	return Services{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(4, iosim.CostModel{}),
		Data: router,
	}, mgr
}

func TestWriteRecordsReplicaSets(t *testing.T) {
	svc, _ := replicatedServices(2)
	b, err := Create(svc, 1, segtree.Geometry{Capacity: 1 << 16, Page: 512})
	if err != nil {
		t.Fatal(err)
	}
	// A write spanning several pages stores several chunks; every leaf
	// ref must carry a 2-provider replica set.
	v, err := b.Write(0, make([]byte, 2048), WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := b.svc.VM.Snapshot(1, v)
	if err != nil {
		t.Fatal(err)
	}
	frags, _, err := b.tree.Resolve(info.Root, extent.List{{Offset: 0, Length: 2048}})
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) == 0 {
		t.Fatal("no fragments resolved")
	}
	for _, f := range frags {
		if len(f.Ref.Replicas) != 2 {
			t.Fatalf("ref %v carries %d replicas, want 2", f.Ref.Key, len(f.Ref.Replicas))
		}
		if f.Ref.Replicas[0] == f.Ref.Replicas[1] {
			t.Fatalf("ref %v replicas not distinct: %v", f.Ref.Key, f.Ref.Replicas)
		}
	}
}

func TestReadFailsOverAcrossReplicas(t *testing.T) {
	svc, mgr := replicatedServices(2)
	b, err := Create(svc, 1, segtree.Geometry{Capacity: 1 << 16, Page: 512})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 3000)
	v, err := b.Write(100, payload, WriteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Whichever single provider dies, every byte stays readable.
	for id := 0; id < 4; id++ {
		if err := mgr.SetDown(provider.ID(id), true); err != nil {
			t.Fatal(err)
		}
		got, err := b.ReadAt(v, 100, 3000)
		if err != nil {
			t.Fatalf("provider %d down: %v", id, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("provider %d down: corrupt read", id)
		}
		if err := mgr.SetDown(provider.ID(id), false); err != nil {
			t.Fatal(err)
		}
	}
}

// readOracle is the byte-level model of a blob: every write is
// scattered into a flat image, and a list read is the image's bytes for
// each query extent, in query order.
type readOracle struct{ image []byte }

func (o *readOracle) write(t *testing.T, b *Blob, l extent.List, seed int64) {
	t.Helper()
	buf := make([]byte, l.TotalLength())
	rand.New(rand.NewSource(seed)).Read(buf)
	vec, err := extent.NewVec(l, buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteList(vec, WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	vec.ScatterInto(o.image, 0)
}

func (o *readOracle) read(q extent.List) []byte {
	var want []byte
	for _, e := range q {
		want = append(want, o.image[e.Offset:e.End()]...)
	}
	return want
}

// TestReadListShapes checks list reads of every shape against the byte
// oracle: caller order is kept for unsorted, overlapping and duplicate
// extents, holes read as zero, extents may start and end mid-chunk, and
// a read may span many more fragments than the fetch window.
func TestReadListShapes(t *testing.T) {
	b := testBlob(t) // 1 KiB pages: one chunk per page
	o := &readOracle{image: make([]byte, b.Geometry().Capacity)}
	// Two overlapping writes (the second shadows part of the first, so
	// reads resolve through chained leaves), leaving [12 KiB, 20 KiB) and
	// everything past 84 KiB never written.
	o.write(t, b, extent.List{{Offset: 0, Length: 12 << 10}, {Offset: 20 << 10, Length: 64 << 10}}, 1)
	o.write(t, b, extent.List{{Offset: 3000, Length: 2500}, {Offset: 30 << 10, Length: 5000}}, 2)
	latest, err := b.Latest()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		q    extent.List
	}{
		{"unsorted", extent.List{{Offset: 40000, Length: 300}, {Offset: 100, Length: 50}, {Offset: 9000, Length: 2000}}},
		{"overlapping", extent.List{{Offset: 2000, Length: 4000}, {Offset: 3500, Length: 1000}, {Offset: 5900, Length: 300}}},
		{"duplicate", extent.List{{Offset: 1500, Length: 700}, {Offset: 1500, Length: 700}, {Offset: 1500, Length: 700}}},
		{"hole inside", extent.List{{Offset: 11 << 10, Length: 10 << 10}}},
		{"never written", extent.List{{Offset: 100 << 10, Length: 3000}, {Offset: 14 << 10, Length: 1}}},
		{"mid-chunk", extent.List{{Offset: 1023, Length: 2}, {Offset: 4097, Length: 1022}, {Offset: 30000, Length: 5555}}},
		{"wider than window", extent.List{{Offset: 10, Length: 90 << 10}}},
		{"many small", func() extent.List {
			var l extent.List
			for i := int64(80); i >= 0; i-- {
				l = append(l, extent.Extent{Offset: i*1024 + 511, Length: 3})
			}
			return l
		}()},
		{"empty extent", extent.List{{Offset: 700, Length: 0}, {Offset: 600, Length: 200}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := b.ReadList(latest.Version, c.q)
			if err != nil {
				t.Fatal(err)
			}
			if want := o.read(c.q); !bytes.Equal(got, want) {
				t.Fatalf("read %v differs from the oracle", c.q)
			}
		})
	}
}

// failingData fails every GetFrom and counts the calls, and the calls
// still running.
type failingData struct {
	DataService
	calls, inflight atomic.Int32
}

func (f *failingData) GetFrom([]provider.ID, chunk.Key, int64, int64) ([]byte, []provider.ID, error) {
	f.calls.Add(1)
	f.inflight.Add(1)
	defer f.inflight.Add(-1)
	time.Sleep(time.Millisecond) // let the window fill before anyone fails
	return nil, nil, errInjected
}

var errInjected = errors.New("injected fetch failure")

// TestReadListFailsFast: once a fetch fails, ReadList issues no more
// fetches, so a failed 64-fragment read costs at most one window of
// calls, and it returns only after every fetch it started has finished.
func TestReadListFailsFast(t *testing.T) {
	b := testBlob(t)
	if _, err := b.Write(0, make([]byte, 64<<10), WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	stub := &failingData{DataService: b.svc.Data}
	b.svc.Data = stub
	_, err := b.ReadAt(1, 0, 64<<10)
	if !errors.Is(err, errInjected) || !strings.HasPrefix(err.Error(), "blob: fetch chunks: ") {
		t.Fatalf("err = %v, want %v wrapped as blob: fetch chunks", err, errInjected)
	}
	if n := stub.inflight.Load(); n != 0 {
		t.Fatalf("%d fetches still running after ReadList returned", n)
	}
	if calls := stub.calls.Load(); calls > DefaultWindow {
		t.Fatalf("%d fetches issued for a failed read, want at most %d", calls, DefaultWindow)
	}
}
