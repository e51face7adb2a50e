// Command wallbench is the repository's wall-clock benchmark of the
// atomic list-I/O service. It boots real deployments with zero-cost
// iosim models, so it measures wall time, real CPU and loopback
// syscalls, drives one named workload, checks every result, and
// prints one JSON result line:
//
//	go run . --workload stream-64m --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With
// --trace 1 the run alternates untraced trials with trials whose
// public seams are wrapped in timing decorators, and the result holds
// the per-layer metrics. --short runs at tiny size, for tests.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	short    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "how long the run repeats trials")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from traced trials")
	flag.BoolVar(&o.short, "short", false, "tiny sizes, for tests")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "wallbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run measures one workload and returns the result line; progress,
// provenance and the stage breakdown go to log.
func run(o options, log io.Writer) (*result, error) {
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	sz := fullSizes
	if o.short {
		sz = shortSizes
	}
	prov, _ := json.Marshal(map[string]any{
		"workload": w.name, "why": w.why, "seed": o.seed, "clock": "wall",
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"trace": o.trace, "seconds": o.seconds,
	})
	fmt.Fprintf(log, "provenance %s\n", prov)

	trial := w.prepare(sz, o.seed)
	// Trial 0 warms the process up (heap growth, first-touch page
	// faults) and is checked but not reported. With --trace 1 the
	// reported trials alternate untraced and traced.
	var plain, traced runTotals
	var layers layerTotals
	perTrial := make(map[string][]float64)
	units := make(map[string]string)
	attempted, failed := 0, 0
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; i <= sz.minTrials || (!o.short && time.Now().Before(deadline)); i++ {
		rng := rand.New(rand.NewPCG(o.seed, uint64(i)))
		var tr *tracer
		if o.trace && i > 0 && i%2 == 0 {
			tr = newTracer()
		}
		runtime.GC() // the previous trial's deployment is garbage now
		r, err := trial(rng, tr)
		if err != nil {
			return nil, fmt.Errorf("%s trial %d: %w", w.name, i, err)
		}
		attempted += r.attempted
		failed += r.failed
		if r.firstErr != nil {
			fmt.Fprintf(log, "trial %d: %d failed, first: %v\n", i, r.failed, r.firstErr)
		}
		switch {
		case i == 0:
		case tr == nil:
			plain.add(r)
			var one runTotals
			one.add(r)
			for _, m := range endToEnd(&one) {
				perTrial[m.name] = append(perTrial[m.name], m.value)
				units[m.name] = m.unit
			}
		default:
			traced.add(r)
			layers.addSpans(tr.take())
			layers.cacheHits += r.hits
			layers.cacheMisses += r.misses
			layers.cacheEvictions += r.evictions
			layers.rpcs += r.rpcs
		}
	}

	res := &result{Metrics: make(map[string]metric), Attempted: attempted, Failed: failed}
	res.Correct = failed == 0 && attempted > 0
	summary, _ := json.Marshal(map[string]any{
		"trials": len(plain.setups) + len(traced.setups), "write_samples": len(plain.writes), "read_samples": len(plain.reads),
		"failed_op_frac": div(float64(failed), float64(attempted)),
	})
	fmt.Fprintf(log, "summary %s\n", summary)
	if o.trace {
		for _, m := range layerMetrics(&layers, &plain, &traced) {
			res.Metrics[m.name] = metric{m.value, m.unit}
		}
		printStages(log, w.name, &layers)
	} else {
		// Each end-to-end metric is the median of its per-trial values.
		for name, vs := range perTrial {
			res.Metrics[name] = metric{quantile(vs, .5), units[name]}
		}
	}
	if attempted == 0 {
		return nil, errors.New("no operation attempted")
	}
	return res, nil
}
