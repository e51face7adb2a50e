package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datatype"
	"repro/internal/extent"
	"repro/internal/mpiio"
	"repro/internal/segtree"
	"repro/internal/workload"
)

// sizes fixes the work of one trial. Every trial boots a fresh
// deployment and does exactly this much work, so heap and stored
// bytes compare across commits; a run repeats trials until its time
// is up.
type sizes struct {
	streamSize   int64 // stream-64m object size
	streamRounds int   // timed write+read rounds per trial, after one warm-up round
	overlapWarm  int   // untimed warm-up calls per client
	overlapCalls int   // timed calls per client
	overlapReads int   // snapshots read back and verified per trial
	ckptSteps    int   // timed write+read steps per rank
	minTrials    int
}

var fullSizes = sizes{
	streamSize:   64 << 20,
	streamRounds: 3,
	overlapWarm:  8,
	overlapCalls: 300,
	overlapReads: 32,
	ckptSteps:    32,
	minTrials:    4,
}

// shortSizes runs every workload at tiny size, for the benchmark's own
// test.
var shortSizes = sizes{
	streamSize:   1 << 20,
	streamRounds: 1,
	overlapWarm:  2,
	overlapCalls: 6,
	overlapReads: 4,
	ckptSteps:    3,
	minTrials:    2,
}

// trialResult is what one trial measured.
type trialResult struct {
	setup                   time.Duration
	writes, reads           []time.Duration // per-call latency of timed calls
	writeBytes, readBytes   int64           // user bytes moved by timed calls
	writeWindow, readWindow time.Duration   // wall time the calls ran in, for rates
	attempted, failed       int
	firstErr                error
	stored, user            int64  // chunk-store bytes, user bytes written
	peakHeap                uint64 // live heap, sampled outside timed calls
	allocBytes, gcCycles    uint64 // runtime counters over timed phases
	timedOps                int
	hits, misses, evictions int64 // read cache, over timed phases
	rpcs                    int64 // inbound gob RPCs, over timed phases
}

func (r *trialResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// sampleHeap collects garbage and records the live heap.
func (r *trialResult) sampleHeap() {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	r.peakHeap = max(r.peakHeap, s[0].Value.Uint64())
}

// phase brackets timed calls: the tracer's server decorators record
// only inside a phase, and runtime and deployment counters are read
// at both ends.
type phase struct {
	d                       *deployment
	tr                      *tracer
	rt                      [2]metrics.Sample
	hits, misses, evictions int64
	rpcs                    int64
}

func startPhase(d *deployment, tr *tracer) *phase {
	p := &phase{d: d, tr: tr}
	p.rt[0].Name = "/gc/heap/allocs:bytes"
	p.rt[1].Name = "/gc/cycles/total:gc-cycles"
	metrics.Read(p.rt[:])
	p.hits, p.misses, p.evictions, p.rpcs = d.counters()
	if tr != nil {
		tr.on.Store(true)
	}
	return p
}

func (p *phase) stop(r *trialResult, ops int) {
	if p.tr != nil {
		p.tr.on.Store(false)
	}
	rt := p.rt
	metrics.Read(rt[:])
	r.allocBytes += rt[0].Value.Uint64() - p.rt[0].Value.Uint64()
	r.gcCycles += rt[1].Value.Uint64() - p.rt[1].Value.Uint64()
	r.timedOps += ops
	h, m, e, n := p.d.counters()
	r.hits += h - p.hits
	r.misses += m - p.misses
	r.evictions += e - p.evictions
	r.rpcs += n - p.rpcs
}

// timed runs one call as a traced op and returns its latency.
func timed(tc *clientTrace, class opClass, call func() error) (time.Duration, error) {
	id := tc.enterOp()
	start := time.Now()
	err := call()
	end := time.Now()
	tc.exitOp(id, class, start, end)
	return end.Sub(start), err
}

// workloadDef is one named workload: prepare makes the run's inputs
// from the seed before anything is timed; trial runs one trial.
type workloadDef struct {
	name    string
	why     string
	prepare func(sz sizes, seed uint64) trialFunc
}

type trialFunc func(rng *rand.Rand, tr *tracer) (*trialResult, error)

var workloads = []workloadDef{
	{
		name:    "stream-64m",
		why:     "One client streams 64 MiB objects over loopback TCP (framed, 256 KiB chunks, R=1); the data plane and read assembly do almost all the work.",
		prepare: prepareStream,
	},
	{
		name:    "overlap-atomic",
		why:     "Two in-process clients write the paper's 75%-overlap list pattern to one blob, so every call contends on tickets, tree builds and in-order publish; reads are the snapshot checks.",
		prepare: prepareOverlap,
	},
	{
		name:    "ckpt-restore",
		why:     "Two ranks write strided checkpoints through mpiio onto rs-4+2 coded stores and read recent peer segments back through the read cache.",
		prepare: prepareCkpt,
	},
}

// --- stream-64m ---

const streamChunk = 256 << 10

func prepareStream(sz sizes, seed uint64) trialFunc {
	payload := make([]byte, sz.streamSize)
	src := rand.New(rand.NewPCG(seed, 0x57))
	for i := 0; i+8 <= len(payload); i += 8 {
		binary.LittleEndian.PutUint64(payload[i:], src.Uint64())
	}
	return func(rng *rand.Rand, tr *tracer) (*trialResult, error) {
		return streamTrial(sz, payload, rng, tr)
	}
}

// stampRound marks every 4 KiB page of the payload with the round's
// stamp, so a read that returns another round's version fails to
// verify.
func stampRound(payload []byte, stamp uint64) {
	for p := 0; p+8 <= len(payload); p += 4096 {
		binary.LittleEndian.PutUint64(payload[p:], stampWord(stamp, int64(p)))
	}
}

func streamTrial(sz sizes, payload []byte, rng *rand.Rand, tr *tracer) (*trialResult, error) {
	res := &trialResult{}
	start := time.Now()
	d, err := boot(deployConfig{providers: 8, metaShards: 8, tcp: true}, tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	c, err := d.dial()
	if err != nil {
		return nil, err
	}
	defer c.close()
	tc := tr.client()
	geo := segtree.Geometry{Capacity: cluster.CapacityFor(sz.streamSize, streamChunk), Page: streamChunk}
	b, err := blob.Create(tc.services(c.svc), 1, geo)
	if err != nil {
		return nil, err
	}
	opts := blob.WriteOptions{Pipelined: true}
	// Warm-up: one window of chunks opens the framed connection pool.
	warm := payload[:min(sz.streamSize, blob.DefaultWindow*streamChunk)]
	stampRound(payload, rng.Uint64())
	v, err := b.Write(0, warm, opts)
	if err != nil {
		return nil, fmt.Errorf("warm-up write: %w", err)
	}
	got, err := b.ReadAt(v, 0, int64(len(warm)))
	if err != nil {
		return nil, fmt.Errorf("warm-up read: %w", err)
	}
	if err := checkStream(got, warm); err != nil {
		return nil, fmt.Errorf("warm-up read: %w", err)
	}
	res.user += int64(len(warm))
	res.setup = time.Since(start)

	for round := 0; round < sz.streamRounds; round++ {
		stampRound(payload, rng.Uint64())
		got = nil
		res.sampleHeap()
		res.attempted++
		ph := startPhase(d, tr)
		lat, err := timed(tc, opWrite, func() (err error) {
			v, err = b.Write(0, payload, opts)
			return err
		})
		ph.stop(res, 1)
		if err != nil {
			res.fail(fmt.Errorf("write round %d: %w", round, err))
			continue
		}
		res.writes = append(res.writes, lat)
		res.writeBytes += sz.streamSize
		res.writeWindow += lat
		res.user += sz.streamSize

		res.sampleHeap()
		res.attempted++
		ph = startPhase(d, tr)
		lat, err = timed(tc, opRead, func() (err error) {
			got, err = b.ReadAt(v, 0, sz.streamSize)
			return err
		})
		ph.stop(res, 1)
		if err == nil {
			err = checkStream(got, payload)
		}
		if err != nil {
			res.fail(fmt.Errorf("read round %d: %w", round, err))
			continue
		}
		res.reads = append(res.reads, lat)
		res.readBytes += sz.streamSize
		res.readWindow += lat
	}
	got = nil
	res.sampleHeap()
	res.stored = d.storedBytes()
	return res, nil
}

// --- overlap-atomic ---

// overlapSpec is the paper's E1 pattern at two clients.
var overlapSpec = workload.OverlapSpec{Clients: 2, Regions: 32, RegionSize: 4 << 10, OverlapFraction: 0.75}

// ring is how many distinct stamped buffers each client cycles
// through; consecutive calls of one client never share a stamp.
const ring = 16

func prepareOverlap(sz sizes, seed uint64) trialFunc {
	src := rand.New(rand.NewPCG(seed, 0x0E))
	exts := make([]extent.List, overlapSpec.Clients)
	vecs := make([][]extent.Vec, overlapSpec.Clients)
	stamps := make([][]uint64, overlapSpec.Clients)
	for c := range exts {
		exts[c] = overlapSpec.ExtentsFor(c)
		for k := 0; k < ring; k++ {
			s := src.Uint64()
			stamps[c] = append(stamps[c], s)
			vecs[c] = append(vecs[c], extent.Vec{Extents: exts[c], Buf: stampedBuffer(exts[c], s)})
		}
	}
	return func(rng *rand.Rand, tr *tracer) (*trialResult, error) {
		return overlapTrial(sz, exts, vecs, stamps, rng, tr)
	}
}

func overlapTrial(sz sizes, exts []extent.List, vecs [][]extent.Vec, stamps [][]uint64, rng *rand.Rand, tr *tracer) (*trialResult, error) {
	res := &trialResult{}
	env := cluster.Default()
	span := overlapSpec.FileSpan()
	start := time.Now()
	d, err := boot(deployConfig{providers: env.Providers, metaShards: env.MetaShards}, tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	local, err := d.dial()
	if err != nil {
		return nil, err
	}
	geo := segtree.Geometry{Capacity: cluster.CapacityFor(span, env.ChunkSize), Page: env.ChunkSize}
	if _, err := blob.Create(local.svc, 1, geo); err != nil {
		return nil, err
	}
	n := overlapSpec.Clients
	tcs := make([]*clientTrace, n)
	bes := make([]*core.VersioningBackend, n)
	for c := range bes {
		tcs[c] = tr.client()
		if bes[c], err = core.OpenVersioning(tcs[c].services(local.svc), 1); err != nil {
			return nil, err
		}
	}
	var log []writeRec
	for i := 0; i < sz.overlapWarm; i++ {
		for c, be := range bes {
			v, err := be.WriteList(vecs[c][i%ring])
			if err != nil {
				return nil, fmt.Errorf("warm-up write: %w", err)
			}
			log = append(log, writeRec{client: c, version: uint64(v), stamp: stamps[c][i%ring]})
			res.user += int64(len(vecs[c][i%ring].Buf))
		}
	}
	res.setup = time.Since(start)

	// Timed: both clients in a closed loop on the shared blob.
	res.sampleHeap()
	logs := make([][]writeRec, n)
	lats := make([][]time.Duration, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	ph := startPhase(d, tr)
	t0 := time.Now()
	for c := range bes {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := sz.overlapWarm; i < sz.overlapWarm+sz.overlapCalls; i++ {
				var v core.Version
				lat, err := timed(tcs[c], opWrite, func() (err error) {
					v, err = bes[c].WriteList(vecs[c][i%ring])
					return err
				})
				if err != nil {
					errs[c] = err
					return
				}
				lats[c] = append(lats[c], lat)
				logs[c] = append(logs[c], writeRec{client: c, version: uint64(v), stamp: stamps[c][i%ring]})
			}
		}(c)
	}
	wg.Wait()
	res.writeWindow = time.Since(t0)
	ph.stop(res, n*sz.overlapCalls)
	res.attempted += n * sz.overlapCalls
	for c := range bes {
		if errs[c] != nil {
			// A client stops at its first error; its untried calls fail too.
			for i := len(lats[c]); i < sz.overlapCalls; i++ {
				res.fail(fmt.Errorf("client %d write: %w", c, errs[c]))
			}
		}
		res.writes = append(res.writes, lats[c]...)
		log = append(log, logs[c]...)
		res.writeBytes += int64(len(lats[c])) * overlapSpec.BytesPerClient()
	}
	res.user += res.writeBytes
	res.sampleHeap()

	// Verification: read sampled snapshots back (timed as the
	// workload's reads) and check each against the write log.
	latest := uint64(0)
	for _, w := range log {
		latest = max(latest, w.version)
	}
	// The latest snapshot, plus one random version from each of
	// overlapReads-1 equal strata of the history, so every trial reads
	// a like mix of shallow and deep versions.
	versions := []uint64{latest}
	strata := float64(sz.overlapReads - 1)
	for k := 0.0; k < strata; k++ {
		versions = append(versions, 1+uint64((k+rng.Float64())*float64(latest-1)/strata))
	}
	rtc := tr.client()
	reader, err := core.OpenVersioning(rtc.services(local.svc), 1)
	if err != nil {
		return nil, err
	}
	q := extent.List{{Offset: 0, Length: span}}
	images := make([][]byte, len(versions))
	ph = startPhase(d, tr)
	t0 = time.Now()
	for i, v := range versions {
		lat, err := timed(rtc, opRead, func() (err error) {
			images[i], err = reader.ReadListAt(core.Version(v), q)
			return err
		})
		res.attempted++
		if err != nil {
			res.fail(fmt.Errorf("read v%d: %w", v, err))
			continue
		}
		res.reads = append(res.reads, lat)
		res.readBytes += span
	}
	res.readWindow = time.Since(t0)
	ph.stop(res, len(versions))
	for i, v := range versions {
		if images[i] == nil {
			continue
		}
		if err := checkOverlapSnapshot(exts, log, v, images[i]); err != nil {
			res.fail(err)
		}
	}
	res.stored = d.storedBytes()
	return res, nil
}

// --- ckpt-restore ---

var ckptSpec = workload.CheckpointSpec{Ranks: 2, Segments: 64, SegmentSize: 16 << 10}

const (
	ckptChunk     = 64 << 10
	ckptPreload   = 4  // epochs every rank writes during setup
	ckptReadSegs  = 16 // peer segments per restore read
	ckptReadDepth = 4  // reads pick one of the last this many versions
)

// ckptInputs are one rank's generated inputs: its stamped checkpoint
// buffers and the choices of its restore reads.
type ckptInputs struct {
	bufs   [][]byte
	stamps []uint64
}

func prepareCkpt(sz sizes, seed uint64) trialFunc {
	src := rand.New(rand.NewPCG(seed, 0xC0))
	in := make([]ckptInputs, ckptSpec.Ranks)
	for r := range in {
		ext := ckptSpec.ExtentsFor(r)
		for k := 0; k < ring; k++ {
			s := src.Uint64()
			in[r].stamps = append(in[r].stamps, s)
			in[r].bufs = append(in[r].bufs, stampedBuffer(ext, s))
		}
	}
	return func(rng *rand.Rand, tr *tracer) (*trialResult, error) {
		return ckptTrial(sz, in, rng, tr)
	}
}

// versionRecorder remembers the version of the last write that passed
// through it; mpiio.Driver does not return it.
type versionRecorder struct {
	core.Backend
	last core.Version
}

func (v *versionRecorder) WriteList(vec extent.Vec) (core.Version, error) {
	ver, err := v.Backend.WriteList(vec)
	if err == nil {
		v.last = ver
	}
	return ver, err
}

// ckptView is rank r's MPI file view: one SegmentSize block every
// Ranks*SegmentSize bytes, starting at its own slot.
func ckptView(r int) mpiio.View {
	return mpiio.View{
		Disp:  int64(r) * ckptSpec.SegmentSize,
		Etype: datatype.Byte,
		Filetype: datatype.Vector{
			Count:    ckptSpec.Segments,
			BlockLen: int(ckptSpec.SegmentSize),
			Stride:   ckptSpec.Ranks * int(ckptSpec.SegmentSize),
			Base:     datatype.Byte,
		},
	}
}

// restorePick is one pre-drawn restore read.
type restorePick struct {
	back int   // versions behind the latest published one
	segs []int // peer segment indices, ascending
}

func ckptTrial(sz sizes, in []ckptInputs, rng *rand.Rand, tr *tracer) (*trialResult, error) {
	res := &trialResult{}
	n := ckptSpec.Ranks
	picks := make([][]restorePick, n)
	for r := range picks {
		for i := 0; i < sz.ckptSteps; i++ {
			segs := rng.Perm(ckptSpec.Segments)[:ckptReadSegs]
			sort.Ints(segs)
			picks[r] = append(picks[r], restorePick{back: rng.IntN(ckptReadDepth), segs: segs})
		}
	}

	start := time.Now()
	d, err := boot(deployConfig{providers: 12, domains: 6, metaShards: 8, coding: "rs-4+2", readCache: true, tcp: true}, tr)
	if err != nil {
		return nil, err
	}
	defer d.close()
	setup, err := d.dial()
	if err != nil {
		return nil, err
	}
	geo := segtree.Geometry{Capacity: cluster.CapacityFor(ckptSpec.FileSpan(), ckptChunk), Page: ckptChunk}
	_, err = blob.Create(setup.svc, 1, geo)
	setup.close()
	if err != nil {
		return nil, err
	}
	tcs := make([]*clientTrace, n)
	bes := make([]*core.VersioningBackend, n)
	recs := make([]*versionRecorder, n)
	files := make([]*mpiio.File, n)
	for r := 0; r < n; r++ {
		c, err := d.dial()
		if err != nil {
			return nil, err
		}
		defer c.close()
		tcs[r] = tr.client()
		if bes[r], err = core.OpenVersioning(tcs[r].services(c.svc), 1); err != nil {
			return nil, err
		}
		recs[r] = &versionRecorder{Backend: bes[r]}
		files[r] = mpiio.Open(nil, tcs[r].driver(&mpiio.VersioningDriver{Backend: recs[r]}))
		if err := files[r].SetView(ckptView(r)); err != nil {
			return nil, err
		}
		files[r].SetAtomicity(true)
	}
	var log []writeRec
	for e := 0; e < ckptPreload; e++ {
		for r, f := range files {
			if err := f.WriteAt(0, in[r].bufs[e%ring]); err != nil {
				return nil, fmt.Errorf("preload rank %d: %w", r, err)
			}
			log = append(log, writeRec{client: r, version: uint64(recs[r].last), stamp: in[r].stamps[e%ring]})
			res.user += ckptSpec.BytesPerRank()
		}
	}
	res.setup = time.Since(start)

	// Timed: every rank alternates a checkpoint write with a restore
	// read of its peer's segments.
	res.sampleHeap()
	type rankOut struct {
		writes, reads []time.Duration
		log           []writeRec
		seen          []segRead
		failed        []error
		readBytes     int64
	}
	outs := make([]rankOut, n)
	var wg sync.WaitGroup
	ph := startPhase(d, tr)
	t0 := time.Now()
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := &outs[r]
			peer := (r + 1) % n
			for i := 0; i < sz.ckptSteps; i++ {
				slot := (ckptPreload + i) % ring
				lat, err := timed(tcs[r], opWrite, func() error { return files[r].WriteAt(0, in[r].bufs[slot]) })
				if err != nil {
					o.failed = append(o.failed, fmt.Errorf("rank %d write: %w", r, err))
				} else {
					o.writes = append(o.writes, lat)
					o.log = append(o.log, writeRec{client: r, version: uint64(recs[r].last), stamp: in[r].stamps[slot]})
				}

				latest, err := bes[r].Latest()
				if err != nil {
					o.failed = append(o.failed, fmt.Errorf("rank %d latest: %w", r, err))
					continue
				}
				v := latest - core.Version(picks[r][i].back)
				q := make(extent.List, 0, ckptReadSegs)
				for _, s := range picks[r][i].segs {
					off := (int64(s)*int64(n) + int64(peer)) * ckptSpec.SegmentSize
					q = append(q, extent.Extent{Offset: off, Length: ckptSpec.SegmentSize})
				}
				var data []byte
				lat, err = timed(tcs[r], opRead, func() (err error) {
					data, err = bes[r].ReadListAt(v, q)
					return err
				})
				if err != nil {
					o.failed = append(o.failed, fmt.Errorf("rank %d read v%d: %w", r, v, err))
					continue
				}
				o.reads = append(o.reads, lat)
				o.readBytes += int64(len(data))
				for j, e := range q {
					stamp, err := segmentStamp(data[int64(j)*e.Length:int64(j+1)*e.Length], e.Offset)
					if err != nil {
						o.failed = append(o.failed, fmt.Errorf("rank %d read v%d: %w", r, v, err))
						break
					}
					o.seen = append(o.seen, segRead{read: r*sz.ckptSteps + i, peer: peer, version: uint64(v), offset: e.Offset, stamp: stamp})
				}
			}
		}(r)
	}
	wg.Wait()
	window := time.Since(t0)
	ph.stop(res, 2*n*sz.ckptSteps)
	res.writeWindow, res.readWindow = window, window
	res.attempted += 2 * n * sz.ckptSteps
	var seen []segRead
	for _, o := range outs {
		res.writes = append(res.writes, o.writes...)
		res.reads = append(res.reads, o.reads...)
		res.writeBytes += int64(len(o.writes)) * ckptSpec.BytesPerRank()
		res.readBytes += o.readBytes
		log = append(log, o.log...)
		seen = append(seen, o.seen...)
		for _, err := range o.failed {
			res.fail(err)
		}
	}
	res.user += res.writeBytes
	if failed, err := checkSegmentReads(log, n, seen); failed > 0 {
		for ; failed > 0; failed-- {
			res.fail(err)
		}
	}
	res.sampleHeap()
	res.stored = d.storedBytes()
	return res, nil
}
