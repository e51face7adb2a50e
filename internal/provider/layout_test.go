package provider

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/metrics"
)

// TestLayoutParity pins the data-path contract both placement layouts
// share, across every write path and every read path: the bytes read
// back, fresh == nil exactly when the caller's hint served the read
// (coded hints are never read through, so there "served" means the hint
// equals placement position for position), and the degraded handler
// firing whenever a read had to fail over around a store-killed
// provider.
func TestLayoutParity(t *testing.T) {
	type row struct {
		name     string
		replicas int
		k, m     int
	}
	rows := []row{
		{name: "R=1", replicas: 1},
		{name: "R=3", replicas: 3},
		{name: "rs-4+2", k: 4, m: 2},
	}
	writes := []struct {
		name  string
		write func(r *Router, key chunk.Key, data []byte) ([]ID, error)
	}{
		{"Put", func(r *Router, key chunk.Key, data []byte) ([]ID, error) { return r.Put(key, data) }},
		{"PutStream", func(r *Router, key chunk.Key, data []byte) ([]ID, error) {
			return r.PutStream(key, int64(len(data)), bytes.NewReader(data))
		}},
	}
	// Each read path returns the bytes, the fresh set (nil for the
	// paths without a hint) and whether the path takes a hint at all.
	type readFn func(r *Router, hint []ID, key chunk.Key, n int64) ([]byte, []ID, error)
	drain := func(rc io.ReadCloser, err error) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		return io.ReadAll(rc)
	}
	reads := []struct {
		name   string
		hinted bool
		read   readFn
	}{
		{"Get", false, func(r *Router, _ []ID, key chunk.Key, n int64) ([]byte, []ID, error) {
			data, err := r.Get(key, 0, n)
			return data, nil, err
		}},
		{"GetFrom", true, func(r *Router, hint []ID, key chunk.Key, n int64) ([]byte, []ID, error) {
			return r.GetFrom(hint, key, 0, n)
		}},
		{"OpenReader", false, func(r *Router, _ []ID, key chunk.Key, n int64) ([]byte, []ID, error) {
			data, err := drain(r.OpenReader(key, 0, n))
			return data, nil, err
		}},
		{"OpenFrom", true, func(r *Router, hint []ID, key chunk.Key, n int64) ([]byte, []ID, error) {
			rc, fresh, err := r.OpenFrom(hint, key, 0, n)
			data, err := drain(rc, err)
			return data, fresh, err
		}},
	}
	const (
		healthy = "healthy"
		stale   = "stale-hint"
		killed  = "store-killed"
	)

	data := make([]byte, 1000)
	rand.New(rand.NewSource(13)).Read(data)
	for _, rw := range rows {
		coded := rw.k > 0
		degree := rw.replicas
		if coded {
			degree = rw.k + rw.m
		}
		same := sameIDSet
		if coded {
			same = sameIDList
		}
		for _, wr := range writes {
			for _, cs := range []string{healthy, stale, killed} {
				t.Run(fmt.Sprintf("%s/%s/%s", rw.name, wr.name, cs), func(t *testing.T) {
					m, faults := faultPool(6)
					r := NewRouter(m)
					r.SetReplicas(rw.replicas)
					if coded {
						if err := r.SetCoding(rw.k, rw.m); err != nil {
							t.Fatal(err)
						}
					}
					var degraded atomic.Int64
					r.SetDegradedHandler(func(chunk.Key) { degraded.Add(1) })

					key := chunk.Key{Blob: 1, Version: 1}
					ids, err := wr.write(r, key, data)
					if err != nil {
						t.Fatalf("write: %v", err)
					}
					if len(ids) != degree {
						t.Fatalf("placement %v has %d members, want %d", ids, len(ids), degree)
					}
					if placed, _ := r.Locate(key); !sameIDList(placed, ids) {
						t.Fatalf("recorded placement %v, write returned %v", placed, ids)
					}

					hint := ids
					switch cs {
					case stale:
						if coded {
							// Same providers, shifted one position: stale
							// for a positional layout even though the set
							// matches.
							hint = append(append([]ID(nil), ids[1:]...), ids[0])
						} else {
							// Providers that never held the chunk.
							hint = nil
							for _, p := range m.Providers() {
								if len(hint) < degree && !containsID(ids, p.ID()) {
									hint = append(hint, p.ID())
								}
							}
						}
					case killed:
						faults[ids[0]].SetDown(true)
					}
					lost := cs == killed && degree == 1

					for _, rd := range reads {
						before := degraded.Load()
						// One read per member: the replica rotation then
						// starts at every member once, so a killed copy
						// is tried first at least once.
						for i := 0; i < degree; i++ {
							got, fresh, err := rd.read(r, hint, key, int64(len(data)))
							if lost {
								if err == nil {
									t.Fatalf("%s: read of the only, killed copy succeeded", rd.name)
								}
								continue
							}
							if err != nil {
								t.Fatalf("%s: %v", rd.name, err)
							}
							if !bytes.Equal(got, data) {
								t.Fatalf("%s: read back wrong bytes", rd.name)
							}
							if !rd.hinted {
								continue
							}
							if cs == stale {
								if fresh == nil || !same(fresh, ids) {
									t.Fatalf("%s: stale hint %v refreshed to %v, want placement %v", rd.name, hint, fresh, ids)
								}
							} else if fresh != nil {
								t.Fatalf("%s: hint %v served the read but fresh = %v", rd.name, hint, fresh)
							}
						}
						fired := degraded.Load() - before
						switch {
						case lost:
						case cs == killed && fired == 0:
							t.Fatalf("%s: failover around the killed store never reported the chunk degraded", rd.name)
						case cs != killed && fired != 0:
							t.Fatalf("%s: %d degraded reports without any failover", rd.name, fired)
						}
					}
				})
			}
		}
	}
}

func containsID(ids []ID, id ID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// TestValidatePlacement: one row per rejection the validator owns,
// plus the configurations that must pass.
func TestValidatePlacement(t *testing.T) {
	for _, tc := range []struct {
		name                        string
		providers, replicas, quorum int
		coding                      string
		want                        string // error substring; "" = valid
	}{
		{"replicated default", 4, 3, 0, "", ""},
		{"replicated full quorum", 4, 3, 3, "", ""},
		{"coded default", 6, 1, 0, "rs-4+2", ""},
		{"coded quorum at floor", 6, 0, 4, "rs-4+2", ""},
		{"replicas exceed providers", 2, 3, 0, "", "3 replicas exceed 2 providers"},
		{"quorum exceeds replicas", 4, 2, 3, "", "write quorum 3 exceeds 2 replicas"},
		{"quorum exceeds unreplicated", 4, 0, 2, "", "write quorum 2 exceeds 1 replicas"},
		{"bad coding spec", 6, 1, 0, "xor-4+2", "want rs-<k>+<m>"},
		{"coding too wide", 300, 1, 0, "rs-200+60", "k+m<=256"},
		{"coding with replicas", 6, 2, 0, "rs-4+2", "mutually exclusive with 2 replicas"},
		{"coding needs k+m", 4, 1, 0, "rs-4+2", "needs 6 providers, have 4"},
		{"coded quorum below k", 6, 1, 2, "rs-4+2", "write quorum 2 outside [4, 6]"},
		{"coded quorum above k+m", 6, 1, 7, "rs-4+2", "write quorum 7 outside [4, 6]"},
	} {
		err := ValidatePlacement(tc.providers, tc.replicas, tc.coding, tc.quorum)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted, want error containing %q", tc.name, tc.want)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

// TestLayoutReadTier pins the two read-tier differences between the
// layouts. With a reader domain set, copies count their reads as local
// or remote while fragments — spread across domains by design — count
// as "flat". And streaming reads of copies bypass the read cache, while
// coded streaming reads are served, and filled, through it.
func TestLayoutReadTier(t *testing.T) {
	for _, coded := range []bool{false, true} {
		m, _, _, _ := NewPool(PoolConfig{N: 6, Domains: 3})
		r := NewRouter(m)
		r.SetReplicas(2)
		if coded {
			if err := r.SetCoding(4, 2); err != nil {
				t.Fatal(err)
			}
		}
		reg := metrics.NewRegistry()
		r.SetMetrics(reg)
		r.SetLocalDomain("zone0")
		cache := NewReadCache(ReadCacheConfig{})
		r.SetReadCache(cache)

		key := chunk.Key{Blob: 1, Version: 1}
		data := bytes.Repeat([]byte("tier"), 256)
		if _, err := r.Put(key, data); err != nil {
			t.Fatal(err)
		}
		rc, err := r.OpenReader(key, 0, int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("coded=%v: OpenReader read back wrong bytes (%v)", coded, err)
		}
		if _, cached := cache.GetData(key, 0, int64(len(data))); cached != coded {
			t.Fatalf("coded=%v: chunk cached after a streaming read = %v", coded, cached)
		}
		snap := reg.Snapshot()
		flat := snap[`bs_chunk_get_total{locality="flat"}`]
		placed := snap[`bs_chunk_get_total{locality="local"}`] + snap[`bs_chunk_get_total{locality="remote"}`]
		if coded && (flat != 1 || placed != 0) || !coded && (flat != 0 || placed != 1) {
			t.Fatalf("coded=%v: gets counted flat=%v local+remote=%v", coded, flat, placed)
		}
	}
}
