package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// runTotals pools the trials of one kind (untraced or traced).
type runTotals struct {
	setups                []float64 // s
	writes, reads         []float64 // ms per call
	writeBytes, readBytes int64
	writeWin, readWin     float64 // s
	stored, user          int64
	heaps                 []float64 // MiB
	allocBytes, gcCycles  float64
	timedOps              int
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (t *runTotals) add(r *trialResult) {
	t.setups = append(t.setups, r.setup.Seconds())
	for _, d := range r.writes {
		t.writes = append(t.writes, ms(d))
	}
	for _, d := range r.reads {
		t.reads = append(t.reads, ms(d))
	}
	t.writeBytes += r.writeBytes
	t.readBytes += r.readBytes
	t.writeWin += r.writeWindow.Seconds()
	t.readWin += r.readWindow.Seconds()
	t.stored += r.stored
	t.user += r.user
	t.heaps = append(t.heaps, float64(r.peakHeap)/(1<<20))
	t.allocBytes += float64(r.allocBytes)
	t.gcCycles += float64(r.gcCycles)
	t.timedOps += r.timedOps
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

type namedValue struct {
	name  string
	unit  string
	value float64
}

// endToEnd computes the metrics a user of the service sees, from
// untraced trials: bytes and calls over the wall time the calls ran
// in, and nearest-rank latency percentiles.
func endToEnd(t *runTotals) []namedValue {
	return []namedValue{
		{"setup_s", "s", quantile(t.setups, .5)},
		{"write_MBps", "MB/s", div(float64(t.writeBytes)/1e6, t.writeWin)},
		{"read_MBps", "MB/s", div(float64(t.readBytes)/1e6, t.readWin)},
		{"write_ops_per_s", "1/s", div(float64(len(t.writes)), t.writeWin)},
		{"write_p50_ms", "ms", quantile(t.writes, .5)},
		{"write_p99_ms", "ms", quantile(t.writes, .99)},
		{"read_ops_per_s", "1/s", div(float64(len(t.reads)), t.readWin)},
		{"read_p50_ms", "ms", quantile(t.reads, .5)},
		{"read_p99_ms", "ms", quantile(t.reads, .99)},
		{"stored_bytes_per_user_byte", "ratio", div(float64(t.stored), float64(t.user))},
		{"peak_heap_MiB", "MiB", quantile(t.heaps, .5)},
	}
}

// overheadFrac compares traced with untraced trials: the median call
// latency of each op class, weighted by the traced call count, minus 1.
func overheadFrac(plain, traced *runTotals) float64 {
	var num, den float64
	for _, c := range [][2][]float64{{plain.writes, traced.writes}, {plain.reads, traced.reads}} {
		if len(c[0]) == 0 || len(c[1]) == 0 {
			continue
		}
		n := float64(len(c[1]))
		num += quantile(c[1], .5) * n
		den += quantile(c[0], .5) * n
	}
	return div(num, den) - 1
}

// layerMetrics computes the per-layer metrics: span reductions from
// the traced trials, runtime counters from the untraced ones.
func layerMetrics(lt *layerTotals, plain, traced *runTotals) []namedValue {
	w, r := float64(lt.ops[opWrite]), float64(lt.ops[opRead])
	all := w + r
	perW := func(ns int64) float64 { return div(float64(ns)/1e6, w) }
	perR := func(ns int64) float64 { return div(float64(ns)/1e6, r) }
	return []namedValue{
		{"mpiio.view_ms", "ms", div(float64(lt.viewNs)/1e6, float64(lt.mpiioOps))},
		{"mpiio.extents_per_call", "count", div(float64(lt.extents), float64(lt.mpiioOps))},
		{"blob.tree_build_ms", "ms", perW(lt.stageNs[stTreeBuild])},
		{"blob.assemble_ms", "ms", perR(lt.stageNs[stAssemble])},
		{"blob.self_share", "ratio", div(float64(lt.selfNs[opWrite]+lt.selfNs[opRead]), float64(lt.opNs[opWrite]+lt.opNs[opRead]))},
		{"vmanager.ticket_ms", "ms", perW(lt.stageNs[stTicket])},
		{"vmanager.complete_ms", "ms", perW(lt.stageNs[stComplete])},
		{"vmanager.publish_wait_ms", "ms", perW(lt.stageNs[stPublishWait])},
		{"vmanager.publish_wait_share", "ratio", div(float64(lt.stageNs[stPublishWait]), float64(lt.opNs[opWrite]))},
		{"vmanager.snapshot_ms", "ms", perR(lt.stageNs[stSnapshot])},
		{"vmanager.server_ms_per_op", "ms", div(float64(lt.serverVMNs)/1e6, all)},
		{"metadata.node_puts_per_op", "count", div(float64(lt.nodePuts), w)},
		{"metadata.node_gets_per_op", "count", div(float64(lt.nodeGets), r)},
		{"metadata.node_put_ms", "ms", perW(lt.stageNs[stNodePut])},
		{"metadata.resolve_ms", "ms", perR(lt.stageNs[stResolve])},
		{"provider.chunk_put_ms", "ms", div(float64(lt.dataPutNs)/1e6, float64(lt.dataPuts))},
		{"provider.chunk_fetch_ms", "ms", div(float64(lt.dataGetNs)/1e6, float64(lt.dataGets))},
		{"provider.puts_per_op", "count", div(float64(lt.dataPuts), w)},
		{"provider.gets_per_op", "count", div(float64(lt.dataGets), r)},
		{"provider.cache_hit_ratio", "ratio", div(float64(lt.cacheHits), float64(lt.cacheHits+lt.cacheMisses))},
		{"provider.cache_evictions_per_op", "count", div(float64(lt.cacheEvictions), all)},
		{"chunk.store_puts_per_chunk", "count", div(float64(lt.storePuts), float64(lt.dataPuts))},
		{"chunk.store_put_ms_per_op", "ms", perW(lt.storePutNs)},
		{"chunk.store_get_ms_per_op", "ms", perR(lt.storeGetNs)},
		{"remote.rpcs_per_op", "count", div(float64(lt.rpcs), all)},
		{"remote.ctrl_overhead_ms", "ms", div(float64(lt.ctrlOverheadNs)/1e6, float64(lt.ctrlCalls))},
		{"remote.data_overhead_ms", "ms", div(float64(lt.dataOverheadNs)/1e6, float64(lt.dataPuts+lt.dataGets))},
		{"runtime.alloc_MiB_per_op", "MiB", div(plain.allocBytes/(1<<20), float64(plain.timedOps))},
		{"runtime.gc_cycles_per_op", "count", div(plain.gcCycles, float64(plain.timedOps))},
		{"trace.overhead_frac", "ratio", overheadFrac(plain, traced)},
	}
}

// printStages prints ROADMAP aim 1's stage breakdown: each stage's
// mean time per op and its share of blob-op wall time, with the time
// no child span covers as the blob's self share.
func printStages(log io.Writer, name string, lt *layerTotals) {
	for _, c := range []struct {
		class  opClass
		label  string
		stages []stage
	}{{opWrite, "write", writeStages}, {opRead, "read", readStages}} {
		n, total := lt.ops[c.class], float64(lt.opNs[c.class])
		if n == 0 {
			continue
		}
		fmt.Fprintf(log, "stages %s %s: %d ops, %.3f ms/op\n", name, c.label, n, total/1e6/float64(n))
		for _, st := range c.stages {
			ns := float64(lt.stageNs[st])
			fmt.Fprintf(log, "  %-13s %9.3f ms/op %6.1f%%\n", stageNames[st], ns/1e6/float64(n), 100*ns/total)
		}
		self := float64(lt.selfNs[c.class])
		fmt.Fprintf(log, "  %-13s %9.3f ms/op %6.1f%%\n", "blob self", self/1e6/float64(n), 100*self/total)
	}
}
