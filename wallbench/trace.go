package main

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/chunk"
	"repro/internal/extent"
	"repro/internal/mpiio"
	"repro/internal/provider"
	"repro/internal/remote"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// The traced run wraps the program's public seams in the decorators
// below. Client-side decorators (blob.Services, mpiio.Driver) are one
// instance per client and tag every span with the client's current op:
// each client runs a closed loop, so whatever it calls between
// enterOp and exitOp belongs to that op. Server-side decorators
// (remote.VMBackend, chunk.Store) are shared; their spans are matched
// to client spans by the version or chunk key both sides see. Spans
// stay in memory until the trial ends, then reduce to layer totals.

type spanKind uint8

const (
	spOp       spanKind = iota // the workload call itself
	spDriver                   // mpiio.Driver.WriteList / ReadList
	spTicket                   // VersionService.AssignTicket
	spComplete                 // VersionService.Complete / Abort
	spWait                     // VersionService.WaitPublished
	spSnapshot                 // VersionService.Snapshot
	spLatest                   // VersionService.LatestPublished
	spNodePut                  // NodeStore.PutNode
	spNodeGet                  // NodeStore.GetNode / TryGetNode
	spDataPut                  // DataService.Put
	spDataGet                  // DataService.Get / GetFrom
	spStorePut                 // chunk.Store.Put / PutFromReader
	spStoreGet                 // chunk.Store.Get / OpenReader
)

type opClass uint8

const (
	opWrite opClass = iota
	opRead
)

// span is one timed call. Times are nanoseconds since the tracer's
// epoch. busy is the part of the span the callee itself worked; it
// differs from end-start only for streaming store calls, which spend
// part of their span blocked on the wire. key carries the chunk key,
// or for version-manager calls the blob and version.
type span struct {
	kind       spanKind
	class      opClass // for spOp
	op         int64   // client op id; 0 on server spans
	start, end int64
	busy       int64
	n          int // extents (spDriver)
	key        chunk.Key
}

type tracer struct {
	epoch time.Time
	on    atomic.Bool // server decorators record only while a timed phase runs

	mu      sync.Mutex
	server  []span
	clients []*clientTrace
	nextOp  atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) serverSpan(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.server = append(t.server, s)
	t.mu.Unlock()
}

// client returns a fresh per-client trace; nil when t is nil, which
// makes every clientTrace method a no-op in untraced trials.
func (t *tracer) client() *clientTrace {
	if t == nil {
		return nil
	}
	c := &clientTrace{t: t}
	t.mu.Lock()
	t.clients = append(t.clients, c)
	t.mu.Unlock()
	return c
}

// take hands over and clears every recorded span.
func (t *tracer) take() (server []span, clients [][]span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	server, t.server = t.server, nil
	for _, c := range t.clients {
		c.mu.Lock()
		clients = append(clients, c.spans)
		c.spans = nil
		c.mu.Unlock()
	}
	return server, clients
}

type clientTrace struct {
	t   *tracer
	cur atomic.Int64 // op in progress, 0 between ops

	mu    sync.Mutex
	spans []span
}

// enterOp starts attributing this client's spans to a new op.
func (c *clientTrace) enterOp() int64 {
	if c == nil {
		return 0
	}
	id := c.t.nextOp.Add(1)
	c.cur.Store(id)
	return id
}

// exitOp records the op's own span and stops attribution.
func (c *clientTrace) exitOp(id int64, class opClass, start, end time.Time) {
	if c == nil {
		return
	}
	c.cur.Store(0)
	c.record(span{kind: spOp, class: class, op: id, start: int64(start.Sub(c.t.epoch)), end: int64(end.Sub(c.t.epoch))})
}

func (c *clientTrace) record(s span) {
	if s.op == 0 {
		return
	}
	s.busy = s.end - s.start
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

// call records a span of kind k from start to now, under the op that
// was current when the call began.
func (c *clientTrace) call(k spanKind, op, start int64, key chunk.Key) {
	c.record(span{kind: k, op: op, start: start, end: c.t.now(), key: key})
}

func (c *clientTrace) begin() (op, start int64) { return c.cur.Load(), c.t.now() }

func vkey(blobID, v uint64) chunk.Key { return chunk.Key{Blob: blobID, Version: v} }

// services wraps a client's service bundle in the client-seam
// decorators. A nil trace returns svc unchanged.
func (c *clientTrace) services(svc blob.Services) blob.Services {
	if c == nil {
		return svc
	}
	return blob.Services{
		VM:    vmTrace{VersionService: svc.VM, sink: c},
		Meta:  metaClient{NodeStore: svc.Meta, c: c},
		Data:  dataClient{DataService: svc.Data, c: c},
		Cache: svc.Cache,
	}
}

// spanSink is where a version-manager decorator's spans go: a
// client's trace, tagged with its current op, or the shared server
// list.
type spanSink interface {
	begin() (op, start int64)
	call(k spanKind, op, start int64, key chunk.Key)
}

// vmTrace records one span per version-manager call into its sink;
// the client seam and the server seam differ only in the sink.
type vmTrace struct {
	blob.VersionService
	sink spanSink
}

func (d vmTrace) AssignTicket(b uint64, e extent.List) (vmanager.Ticket, error) {
	op, s := d.sink.begin()
	tk, err := d.VersionService.AssignTicket(b, e)
	d.sink.call(spTicket, op, s, vkey(b, tk.Version))
	return tk, err
}

func (d vmTrace) Complete(b, v uint64, root segtree.NodeKey) error {
	op, s := d.sink.begin()
	err := d.VersionService.Complete(b, v, root)
	d.sink.call(spComplete, op, s, vkey(b, v))
	return err
}

func (d vmTrace) Abort(b, v uint64) error {
	op, s := d.sink.begin()
	err := d.VersionService.Abort(b, v)
	d.sink.call(spComplete, op, s, vkey(b, v))
	return err
}

func (d vmTrace) WaitPublished(b, v uint64) error {
	op, s := d.sink.begin()
	err := d.VersionService.WaitPublished(b, v)
	d.sink.call(spWait, op, s, vkey(b, v))
	return err
}

func (d vmTrace) Snapshot(b, v uint64) (vmanager.SnapshotInfo, error) {
	op, s := d.sink.begin()
	info, err := d.VersionService.Snapshot(b, v)
	d.sink.call(spSnapshot, op, s, vkey(b, v))
	return info, err
}

func (d vmTrace) LatestPublished(b uint64) (vmanager.SnapshotInfo, error) {
	op, s := d.sink.begin()
	info, err := d.VersionService.LatestPublished(b)
	d.sink.call(spLatest, op, s, vkey(b, info.Version))
	return info, err
}

type metaClient struct {
	segtree.NodeStore
	c *clientTrace
}

func (d metaClient) PutNode(b uint64, key segtree.NodeKey, n *segtree.Node) error {
	op, s := d.c.begin()
	err := d.NodeStore.PutNode(b, key, n)
	d.c.call(spNodePut, op, s, chunk.Key{})
	return err
}

func (d metaClient) GetNode(b uint64, key segtree.NodeKey) (*segtree.Node, error) {
	op, s := d.c.begin()
	n, err := d.NodeStore.GetNode(b, key)
	d.c.call(spNodeGet, op, s, chunk.Key{})
	return n, err
}

func (d metaClient) TryGetNode(b uint64, key segtree.NodeKey) (*segtree.Node, bool, error) {
	op, s := d.c.begin()
	n, ok, err := d.NodeStore.TryGetNode(b, key)
	d.c.call(spNodeGet, op, s, chunk.Key{})
	return n, ok, err
}

type dataClient struct {
	blob.DataService
	c *clientTrace
}

func (d dataClient) Put(key chunk.Key, data []byte) ([]provider.ID, error) {
	op, s := d.c.begin()
	ids, err := d.DataService.Put(key, data)
	d.c.call(spDataPut, op, s, key)
	return ids, err
}

func (d dataClient) Get(key chunk.Key, off, length int64) ([]byte, error) {
	op, s := d.c.begin()
	data, err := d.DataService.Get(key, off, length)
	d.c.call(spDataGet, op, s, key)
	return data, err
}

func (d dataClient) GetFrom(replicas []provider.ID, key chunk.Key, off, length int64) ([]byte, []provider.ID, error) {
	op, s := d.c.begin()
	data, fresh, err := d.DataService.GetFrom(replicas, key, off, length)
	d.c.call(spDataGet, op, s, key)
	return data, fresh, err
}

// driver wraps an mpiio.Driver; the span between File.WriteAt and
// Driver.WriteList is the view translation mpiio adds.
func (c *clientTrace) driver(d mpiio.Driver) mpiio.Driver {
	if c == nil {
		return d
	}
	return driverTrace{Driver: d, c: c}
}

type driverTrace struct {
	mpiio.Driver
	c *clientTrace
}

func (d driverTrace) WriteList(vec extent.Vec, atomic bool) error {
	op, s := d.c.begin()
	err := d.Driver.WriteList(vec, atomic)
	d.c.record(span{kind: spDriver, op: op, start: s, end: d.c.t.now(), n: len(vec.Extents)})
	return err
}

func (d driverTrace) ReadList(q extent.List, atomic bool) ([]byte, error) {
	op, s := d.c.begin()
	data, err := d.Driver.ReadList(q, atomic)
	d.c.record(span{kind: spDriver, op: op, start: s, end: d.c.t.now(), n: len(q)})
	return data, err
}

// vmServer wraps the version manager a node (or an in-process client)
// is served by.
func (t *tracer) vmServer(vm remote.VMBackend) remote.VMBackend {
	if t == nil {
		return vm
	}
	return vmServer{vmTrace: vmTrace{VersionService: vm, sink: serverSink{t}}, vmExtra: vm}
}

// vmExtra is the rest of remote.VMBackend, passed through untraced.
type vmExtra interface {
	AssignTicketBatch(reqs []vmanager.TicketRequest) []vmanager.TicketResult
	CompleteBatch(reqs []vmanager.PublishRequest) []error
	Blobs() []uint64
	ShardStatuses() []vmanager.ShardStatus
}

type vmServer struct {
	vmTrace
	vmExtra
}

type serverSink struct{ t *tracer }

func (s serverSink) begin() (op, start int64) { return 0, s.t.now() }

func (s serverSink) call(k spanKind, _, start int64, key chunk.Key) {
	e := s.t.now()
	s.t.serverSpan(span{kind: k, start: start, end: e, busy: e - start, key: key})
}

// store wraps one provider's chunk store.
func (t *tracer) store(s chunk.Store) chunk.Store {
	if t == nil {
		return s
	}
	return storeTrace{Store: s, t: t}
}

type storeTrace struct {
	chunk.Store
	t *tracer
}

func (d storeTrace) Put(key chunk.Key, data []byte) error {
	s := d.t.now()
	err := d.Store.Put(key, data)
	e := d.t.now()
	d.t.serverSpan(span{kind: spStorePut, start: s, end: e, busy: e - s, key: key})
	return err
}

func (d storeTrace) Get(key chunk.Key, off, length int64) ([]byte, error) {
	s := d.t.now()
	data, err := d.Store.Get(key, off, length)
	e := d.t.now()
	d.t.serverSpan(span{kind: spStoreGet, start: s, end: e, busy: e - s, key: key})
	return data, err
}

// PutFromReader's busy time excludes the time spent blocked reading
// the payload off the wire.
func (d storeTrace) PutFromReader(key chunk.Key, size int64, r io.Reader) error {
	s := d.t.now()
	src := &timedReader{r: r, t: d.t}
	err := d.Store.PutFromReader(key, size, src)
	e := d.t.now()
	d.t.serverSpan(span{kind: spStorePut, start: s, end: e, busy: e - s - src.ns, key: key})
	return err
}

// OpenReader's span runs from open to Close; its busy time is the open
// plus the time the store spent inside Read.
func (d storeTrace) OpenReader(key chunk.Key, off, length int64) (io.ReadCloser, error) {
	s := d.t.now()
	rc, err := d.Store.OpenReader(key, off, length)
	if err != nil {
		return rc, err
	}
	return &storeReader{rc: rc, t: d.t, key: key, start: s, busy: d.t.now() - s}, nil
}

type timedReader struct {
	r  io.Reader
	t  *tracer
	ns int64
}

func (tr *timedReader) Read(p []byte) (int, error) {
	s := tr.t.now()
	n, err := tr.r.Read(p)
	tr.ns += tr.t.now() - s
	return n, err
}

type storeReader struct {
	rc    io.ReadCloser
	t     *tracer
	key   chunk.Key
	start int64
	busy  int64
}

func (sr *storeReader) Read(p []byte) (int, error) {
	s := sr.t.now()
	n, err := sr.rc.Read(p)
	sr.busy += sr.t.now() - s
	return n, err
}

func (sr *storeReader) Close() error {
	err := sr.rc.Close()
	sr.t.serverSpan(span{kind: spStoreGet, start: sr.start, end: sr.t.now(), busy: sr.busy, key: sr.key})
	return err
}

// --- reduction ---

// Stages of ROADMAP aim 1, in attribution priority order: where spans
// overlap (parallel chunk puts beside node puts), an instant counts
// toward the first stage listed that covers it.
type stage int

const (
	stTicket stage = iota
	stComplete
	stPublishWait
	stChunkPut
	stNodePut
	stTreeBuild
	stSnapshot
	stChunkFetch
	stResolve
	stAssemble
	numStages
)

var stageNames = [numStages]string{
	stTicket: "ticket", stComplete: "complete", stPublishWait: "publish wait",
	stChunkPut: "chunk put", stNodePut: "node put", stTreeBuild: "tree build",
	stSnapshot: "snapshot", stChunkFetch: "chunk fetch", stResolve: "resolve", stAssemble: "assemble",
}

// Display order of the breakdown: the order the stages run in.
var (
	writeStages = []stage{stTicket, stChunkPut, stTreeBuild, stNodePut, stComplete, stPublishWait}
	readStages  = []stage{stSnapshot, stResolve, stChunkFetch, stAssemble}
)

// layerTotals accumulates the traced trials' reductions. Times are
// nanoseconds summed over ops; ops count blob-level writes and reads.
type layerTotals struct {
	ops      [2]int64 // by opClass
	opNs     [2]int64 // blob-op wall time by class
	stageNs  [numStages]int64
	selfNs   [2]int64
	mpiioOps int64
	viewNs   int64
	extents  int64

	nodePuts, nodeGets int64 // within write / read ops
	dataPuts, dataGets int64
	dataPutNs          int64
	dataGetNs          int64
	storePuts          int64
	storePutNs         int64 // busy time, summed
	storeGetNs         int64
	serverVMNs         int64
	ctrlCalls          int64
	ctrlOverheadNs     int64 // client control span minus its server span, summed
	dataOverheadNs     int64 // client chunk span minus its stores' busy time, summed

	cacheHits, cacheMisses, cacheEvictions int64
	rpcs                                   int64
}

type iv struct{ a, b int64 }

// union sorts and merges intervals, clipped to [lo, hi).
func union(xs []iv, lo, hi int64) []iv {
	var out []iv
	for _, x := range xs {
		x.a, x.b = max(x.a, lo), min(x.b, hi)
		if x.a < x.b {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].a < out[j].a })
	merged := out[:0]
	for _, x := range out {
		if n := len(merged); n > 0 && x.a <= merged[n-1].b {
			merged[n-1].b = max(merged[n-1].b, x.b)
			continue
		}
		merged = append(merged, x)
	}
	return merged
}

func length(xs []iv) (n int64) {
	for _, x := range xs {
		n += x.b - x.a
	}
	return n
}

// addSpans accumulates one trial's spans into the totals.
func (lt *layerTotals) addSpans(server []span, clients [][]span) {
	type mkey struct {
		kind spanKind
		key  chunk.Key
	}
	byKey := make(map[mkey][]int)
	used := make([]bool, len(server))
	for i, s := range server {
		byKey[mkey{s.kind, s.key}] = append(byKey[mkey{s.kind, s.key}], i)
		switch s.kind {
		case spStorePut:
			lt.storePutNs += s.busy
			lt.storePuts++
		case spStoreGet:
			lt.storeGetNs += s.busy
		default:
			lt.serverVMNs += s.busy
		}
	}
	// serverBusy sums the busy time of the unused server spans of kind
	// k and key that start inside the client span c (a streamed read's
	// store span closes only after the client has its bytes); one match
	// suffices for a control call, every fragment counts for a chunk
	// call.
	serverBusy := func(k spanKind, c span, all bool) (ns int64) {
		for _, i := range byKey[mkey{k, c.key}] {
			s := server[i]
			if used[i] || s.start < c.start || s.start > c.end {
				continue
			}
			used[i] = true
			ns += s.busy
			if !all {
				break
			}
		}
		return ns
	}
	for _, spans := range clients {
		byOp := make(map[int64][]span)
		for _, s := range spans {
			byOp[s.op] = append(byOp[s.op], s)
		}
		for _, ss := range byOp {
			lt.addOp(ss, serverBusy)
		}
	}
}

// addOp reduces the spans of one client op.
func (lt *layerTotals) addOp(ss []span, serverBusy func(spanKind, span, bool) int64) {
	var op, drv *span
	for i := range ss {
		switch ss[i].kind {
		case spOp:
			op = &ss[i]
		case spDriver:
			drv = &ss[i]
		}
	}
	if op == nil {
		return // an op the trial stopped timing
	}
	class := op.class
	// The blob-level op is the driver call under mpiio, else the op.
	lo, hi := op.start, op.end
	if drv != nil {
		lt.mpiioOps++
		lt.viewNs += (op.end - op.start) - (drv.end - drv.start)
		lt.extents += int64(drv.n)
		lo, hi = drv.start, drv.end
	}
	lt.ops[class]++
	lt.opNs[class] += hi - lo

	var sets [numStages][]iv
	lastPut, firstGet, lastGet, snapEnd, completeStart := int64(-1), int64(-1), int64(-1), int64(-1), int64(-1)
	for _, s := range ss {
		x := iv{s.start, s.end}
		switch s.kind {
		case spTicket, spComplete, spWait, spSnapshot, spLatest:
			lt.ctrlCalls++
			lt.ctrlOverheadNs += s.busy - serverBusy(s.kind, s, false)
		}
		switch s.kind {
		case spTicket:
			sets[stTicket] = append(sets[stTicket], x)
		case spComplete:
			sets[stComplete] = append(sets[stComplete], x)
			completeStart = s.start
		case spWait:
			sets[stPublishWait] = append(sets[stPublishWait], x)
		case spSnapshot:
			sets[stSnapshot] = append(sets[stSnapshot], x)
			snapEnd = s.end
		case spNodePut:
			sets[stNodePut] = append(sets[stNodePut], x)
			if class == opWrite {
				lt.nodePuts++
			}
		case spNodeGet:
			if class == opRead {
				lt.nodeGets++
			}
		case spDataPut:
			sets[stChunkPut] = append(sets[stChunkPut], x)
			lastPut = max(lastPut, s.end)
			lt.dataPuts++
			lt.dataPutNs += s.busy
			lt.dataOverheadNs += s.busy - serverBusy(spStorePut, s, true)
		case spDataGet:
			sets[stChunkFetch] = append(sets[stChunkFetch], x)
			if firstGet < 0 || s.start < firstGet {
				firstGet = s.start
			}
			lastGet = max(lastGet, s.end)
			lt.dataGets++
			lt.dataGetNs += s.busy
			lt.dataOverheadNs += s.busy - serverBusy(spStoreGet, s, true)
		}
	}
	if lastPut >= 0 && completeStart >= 0 {
		sets[stTreeBuild] = []iv{{lastPut, completeStart}}
	}
	if snapEnd >= 0 && firstGet >= 0 {
		sets[stResolve] = []iv{{snapEnd, firstGet}}
	}
	if lastGet >= 0 {
		sets[stAssemble] = []iv{{lastGet, hi}}
	}
	var covered []iv
	for st := stage(0); st < numStages; st++ {
		u := union(sets[st], lo, hi)
		if len(u) == 0 {
			continue
		}
		before := length(covered)
		covered = union(append(covered, u...), lo, hi)
		lt.stageNs[st] += length(covered) - before
	}
	lt.selfNs[class] += (hi - lo) - length(covered)
}
