package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/extent"
	"repro/internal/iosim"
	"repro/internal/provider"
	"repro/internal/workload"
)

// fakeHealRouter scripts replica health for queue/rate-limit tests.
type fakeHealRouter struct {
	mu          sync.Mutex
	keys        []chunk.Key
	degraded    map[chunk.Key]bool
	verifyCalls int
	repairCalls []chunk.Key
}

func (f *fakeHealRouter) VerifyReplicas(key chunk.Key) (int, int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.verifyCalls++
	if f.degraded[key] {
		return 1, 2, true
	}
	return 2, 2, true
}

func (f *fakeHealRouter) RepairChunk(key chunk.Key) (provider.RepairOutcome, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.repairCalls = append(f.repairCalls, key)
	delete(f.degraded, key)
	return provider.RepairRepaired, 1, nil
}

func (f *fakeHealRouter) Keys() []chunk.Key {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]chunk.Key(nil), f.keys...)
}

func (f *fakeHealRouter) UnderReplicated() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.degraded)
}

func fakeKeys(n int) []chunk.Key {
	keys := make([]chunk.Key, n)
	for i := range keys {
		keys[i] = chunk.Key{Blob: 1, Version: uint64(i + 1)}
	}
	return keys
}

// TestRepairQueueBounds: the queue holds at most QueueDepth distinct
// chunks; duplicates and overflow are dropped and counted, never
// blocking the caller.
func TestRepairQueueBounds(t *testing.T) {
	h := core.NewHealer(&fakeHealRouter{}, nil, core.HealerConfig{QueueDepth: 4})
	keys := fakeKeys(10)
	for _, k := range keys {
		h.EnqueueRepair(k)
	}
	h.EnqueueRepair(keys[0]) // already queued
	st := h.Stats()
	if st.Enqueued != 4 || st.Dropped != 6 || st.Duplicates != 1 || st.QueueLen != 4 {
		t.Fatalf("queue stats = %+v, want 4 enqueued / 6 dropped / 1 duplicate", st)
	}
}

// TestRepairRateLimit: each tick drains at most RepairsPerTick queued
// chunks — the deterministic half of the repair-storm guard.
func TestRepairRateLimit(t *testing.T) {
	f := &fakeHealRouter{degraded: make(map[chunk.Key]bool)}
	h := core.NewHealer(f, nil, core.HealerConfig{RepairsPerTick: 3, QueueDepth: 100, ScrubChunksPerTick: 1})
	for _, k := range fakeKeys(10) {
		f.degraded[k] = true
		h.EnqueueRepair(k)
	}
	for tick := 1; tick <= 4; tick++ {
		h.Tick()
		want := 3 * tick
		if want > 10 {
			want = 10
		}
		f.mu.Lock()
		got := len(f.repairCalls)
		f.mu.Unlock()
		if got != want {
			t.Fatalf("after tick %d: %d repairs executed, want %d", tick, got, want)
		}
	}
	if st := h.Stats(); st.Repaired != 10 || st.QueueLen != 0 {
		t.Fatalf("final stats = %+v", st)
	}
}

// TestScrubRateAndPasses: the placement-walk scrub verifies at most
// ScrubChunksPerTick chunks per tick, finds exactly the degraded ones,
// and counts completed passes.
func TestScrubRateAndPasses(t *testing.T) {
	f := &fakeHealRouter{keys: fakeKeys(25), degraded: make(map[chunk.Key]bool)}
	f.degraded[f.keys[3]] = true
	f.degraded[f.keys[17]] = true
	h := core.NewHealer(f, nil, core.HealerConfig{ScrubChunksPerTick: 10, RepairsPerTick: 1, QueueDepth: 16})

	h.Tick() // verifies 10
	f.mu.Lock()
	calls := f.verifyCalls
	f.mu.Unlock()
	// The repair worker may also verify (RepairChunk is scripted, not
	// counted); scrub verification alone is capped at 10.
	if calls > 10 {
		t.Fatalf("tick 1 verified %d chunks, cap is 10", calls)
	}
	for i := 0; i < 6; i++ {
		h.Tick()
	}
	st := h.Stats()
	if st.ScrubPasses == 0 {
		t.Fatalf("no completed scrub pass after 7 ticks over 25 keys at rate 10: %+v", st)
	}
	if st.Enqueued != 2 {
		t.Fatalf("scrub enqueued %d chunks, want exactly the 2 degraded ones", st.Enqueued)
	}
	if f.UnderReplicated() != 0 {
		t.Fatalf("%d chunks still degraded after the pass", f.UnderReplicated())
	}
}

// TestHealerScrubWalksPublishedVersions: with a registered blob the
// scrub walk resolves published versions' metadata, verifies every
// referenced chunk once per pass, and heals a store-level kill
// end-to-end on a real deployment.
func TestHealerScrubWalksPublishedVersions(t *testing.T) {
	env := cluster.Default()
	env.Replicas = 2
	env.SelfHeal = true
	env.FaultInjection = true
	env.FailThreshold = 2
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		t.Fatal(err)
	}
	be, err := svc.Backend(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32<<10)
	for i := 0; i < 8; i++ {
		for j := range buf {
			buf[j] = byte(i + 1)
		}
		if _, err := be.WriteList(mustVec(t, int64(i)*(32<<10), buf)); err != nil {
			t.Fatal(err)
		}
	}
	svc.Faults[0].SetDown(true)
	for i := 0; i < 200 && svc.Router.UnderReplicated() > 0; i++ {
		svc.Healer.Tick()
	}
	if n := svc.Router.UnderReplicated(); n != 0 {
		t.Fatalf("%d chunks under-replicated after healing: %+v", n, svc.Healer.Stats())
	}
	st := svc.Healer.Stats()
	if st.ScrubbedChunks == 0 || st.Repaired == 0 {
		t.Fatalf("healer did no work: %+v", st)
	}
	if svc.Health.State(0) != provider.Down {
		t.Fatalf("store-level kill not detected: provider 0 is %s", svc.Health.State(0))
	}
	if _, err := be.Scrub(); err != nil {
		t.Fatalf("scrub after self-heal: %v", err)
	}
}

func mustVec(t *testing.T, off int64, data []byte) extent.Vec {
	t.Helper()
	vec, err := extent.NewVec(extent.List{{Offset: off, Length: int64(len(data))}}, data)
	if err != nil {
		t.Fatal(err)
	}
	return vec
}

// TestRepairStormLatencyGuard is the backpressure acceptance test:
// with a provider lost and a full repair backlog draining at the
// configured rate, concurrent foreground WriteList latency (on the
// metered virtual-time model) must degrade by less than the configured
// bound. This is what "repair cannot starve foreground writes" means
// operationally.
func TestRepairStormLatencyGuard(t *testing.T) {
	const latencyBound = 4.0 // storm-mean / healthy-mean must stay under this

	env := cluster.Default()
	env.Providers = 8
	env.Replicas = 2
	env.SelfHeal = true
	env.FaultInjection = true
	env.FailThreshold = 2
	env.ScrubRate = 16
	env.RepairRate = 2 // the knob under test: repair trickles, writes flow
	// A deliberately slow cost model: per-op virtual time two orders
	// above scheduler/instrumentation noise, so the measured ratio
	// reflects metered service time, not -race overhead.
	env.DataModel = iosim.CostModel{PerOp: 200 * time.Microsecond, BytesPerSec: 256 << 20}
	svc, err := cluster.NewVersioning(env)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.OverlapSpec{Clients: 4, Regions: 16, RegionSize: 16 << 10, OverlapFraction: 0.5}
	be, err := svc.Backend(1, spec.FileSpan())
	if err != nil {
		t.Fatal(err)
	}

	writePhase := func(rounds int) time.Duration {
		start := time.Now()
		n := 0
		for r := 0; r < rounds; r++ {
			for c := 0; c < spec.Clients; c++ {
				exts := spec.ExtentsFor(c)
				vec, err := extent.NewVec(exts[:1], make([]byte, exts[0].Length))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := be.WriteList(vec); err != nil {
					t.Fatal(err)
				}
				n++
			}
		}
		return time.Since(start) / time.Duration(n)
	}

	// Populate, then measure healthy baseline latency.
	writePhase(4)
	healthy := writePhase(8)

	// Kill a provider and FLOOD the repair queue: every chunk the
	// router knows is enqueued at once (far more than are degraded).
	// The healer drains it at RepairsPerTick per tick, one tick every
	// 2ms — the rate limit is (repairs x chunk I/O) / interval, which
	// is what keeps repair bandwidth off the foreground meters.
	svc.Faults[2].SetDown(true)
	for _, key := range svc.Router.Keys() {
		svc.Healer.EnqueueRepair(key)
	}
	flooded := svc.Healer.QueueLen()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				svc.Healer.Tick()
			}
		}
	}()
	storm := writePhase(8)
	close(stop)
	wg.Wait()

	ratio := float64(storm) / float64(healthy)
	t.Logf("healthy %v, under repair storm %v (%.2fx, bound %.1fx); flooded %d; healer %+v",
		healthy, storm, ratio, latencyBound, flooded, svc.Healer.Stats())
	if ratio > latencyBound {
		t.Fatalf("foreground write latency degraded %.2fx under repair storm, bound is %.1fx — repair is starving writes",
			ratio, latencyBound)
	}
	if flooded == 0 {
		t.Fatal("flood enqueued nothing — the guard measured an idle healer")
	}
	// Drain the rest so the run also proves the flood converges.
	for i := 0; i < 5000 && svc.Healer.QueueLen() > 0; i++ {
		svc.Healer.Tick()
	}
	if st := svc.Healer.Stats(); st.Repaired == 0 || st.QueueLen != 0 {
		t.Fatalf("flood did not converge: %+v", st)
	}
}

// TestHealerPass: the synchronous Pass covers a full scrub walk and
// drains the queue — the bsctl scrub -sync path.
func TestHealerPass(t *testing.T) {
	f := &fakeHealRouter{keys: fakeKeys(40), degraded: make(map[chunk.Key]bool)}
	for _, k := range f.keys[:7] {
		f.degraded[k] = true
	}
	h := core.NewHealer(f, nil, core.HealerConfig{ScrubChunksPerTick: 4, RepairsPerTick: 2, QueueDepth: 8})
	st := h.Pass()
	if f.UnderReplicated() != 0 {
		t.Fatalf("Pass left %d chunks degraded", f.UnderReplicated())
	}
	if st.QueueLen != 0 || st.ScrubPasses == 0 {
		t.Fatalf("Pass stats = %+v", st)
	}
	if fmt.Sprint(st.Repaired) != "7" {
		t.Fatalf("Pass repaired %d chunks, want 7", st.Repaired)
	}
}

// TestHealerPassEmptyDeployment: a sync scrub pass over a deployment
// with no chunks must terminate promptly (an empty walk is a complete
// pass), not spin to the iteration cap — the bsctl scrub -sync path on
// a fresh daemon.
func TestHealerPassEmptyDeployment(t *testing.T) {
	h := core.NewHealer(&fakeHealRouter{}, nil, core.HealerConfig{})
	done := make(chan core.HealerStats, 1)
	go func() { done <- h.Pass() }()
	select {
	case st := <-done:
		if st.ScrubPasses == 0 {
			t.Fatalf("empty pass not counted: %+v", st)
		}
		if st.Ticks > 10 {
			t.Fatalf("empty Pass burned %d ticks", st.Ticks)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pass() on an empty deployment did not return")
	}
}

// TestHealerPassWithLostChunk: Pass() must terminate promptly even
// when a chunk is permanently unrepairable (no surviving replica) —
// the scrubber re-enqueues it every pass, so "queue drained" alone
// would never hold.
func TestHealerPassWithLostChunk(t *testing.T) {
	mgr, _, faults, _ := provider.NewPool(provider.PoolConfig{N: 3, Faulty: true})
	r := provider.NewRouter(mgr)
	r.SetReplicas(2)
	key := chunk.Key{Blob: 1, Version: 1, Index: 0}
	ids, err := r.Put(key, []byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids { // every copy dies: the chunk is lost
		faults[id].SetDown(true)
	}
	h := core.NewHealer(r, nil, core.HealerConfig{ScrubChunksPerTick: 16, RepairsPerTick: 4})
	done := make(chan core.HealerStats, 1)
	go func() { done <- h.Pass() }()
	select {
	case st := <-done:
		if st.Lost == 0 {
			t.Fatalf("lost chunk not reported: %+v", st)
		}
		if st.Ticks > 100 {
			t.Fatalf("Pass over an unrepairable chunk burned %d ticks", st.Ticks)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Pass() with a lost chunk did not return")
	}
}
