package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/blob"
	"repro/internal/cluster"
	"repro/internal/iosim"
	"repro/internal/metadata"
	"repro/internal/provider"
	"repro/internal/remote"
	"repro/internal/segtree"
	"repro/internal/vmanager"
)

// LargeObjectCase is one cell of experiment E17: a data-plane
// transport × write-mode × store-backend combination, measured over a
// real TCP loopback deployment (one node hosting all three roles, one
// client process-side). Unlike the simulated experiments, E17 reports
// wall-clock MB/s — the point is the transport and the overlap, not
// the cost model.
type LargeObjectCase struct {
	// Framed selects the framed binary data plane (DialFramed); false
	// runs chunks through the gob RPC codec like any control call.
	Framed bool
	// Pipelined streams the write: chunk upload overlaps the segment
	// tree build, bounded by the in-flight window. False buffers the
	// classic way — all chunks stored, then the tree built.
	Pipelined bool
	// StoreURL selects the provider chunk backend (mem://,
	// disk:///path, null://).
	StoreURL string
}

// Name renders the case as "framed+streamed/disk" for tables.
func (c LargeObjectCase) Name() string {
	return c.Transport() + "+" + c.Mode() + "/" + c.Backend()
}

// Transport names the data-plane wire format of the case.
func (c LargeObjectCase) Transport() string {
	if c.Framed {
		return "framed"
	}
	return "gob"
}

// Mode names the write mode of the case.
func (c LargeObjectCase) Mode() string {
	if c.Pipelined {
		return "streamed"
	}
	return "buffered"
}

// Backend names the chunk store scheme of the case.
func (c LargeObjectCase) Backend() string {
	if i := strings.Index(c.StoreURL, "://"); i >= 0 {
		return strings.TrimPrefix(c.StoreURL[:i], "fault+")
	}
	return c.StoreURL
}

// LargeObjectOptions tunes RunLargeObject.
type LargeObjectOptions struct {
	// Size is the object size in bytes (default 256 MiB).
	Size int64
	// ChunkSize is the stripe unit (default 1 MiB).
	ChunkSize int64
	// Providers is the data-pool size behind the node (default 8).
	Providers int
	// Window bounds the pipelined mode's in-flight chunk uploads
	// (ignored when buffering). The default is 64 — large-object
	// uploads want a deeper pipe than blob.DefaultWindow's
	// general-purpose 8, and at the default 1 MiB chunks that still
	// bounds write-side buffering to 64 MiB.
	Window int
	// Rounds runs the measured write/read cycle that many times and
	// keeps the best of each (default 3): one-shot wall-clock numbers
	// on a shared host are GC- and scheduler-noisy, and E17's product
	// is a ratio between cells.
	Rounds int
}

// LargeObjectResult is one measured E17 cell.
type LargeObjectResult struct {
	Case         LargeObjectCase
	Size         int64
	WriteElapsed time.Duration
	ReadElapsed  time.Duration
	WriteMBps    float64
	ReadMBps     float64
}

// RunLargeObject measures experiment E17: one client writes a large
// object through a live TCP node and reads the published version back,
// end to end — ticket, chunk upload, tree build, publish, then the
// read fan-in. Payload fidelity is verified on every backend that
// keeps bytes (null:// discards them by design, so only the sizes are
// checked there).
func RunLargeObject(c LargeObjectCase, opts LargeObjectOptions) (LargeObjectResult, error) {
	if opts.Size <= 0 {
		opts.Size = 256 << 20
	}
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = 1 << 20
	}
	if opts.Providers <= 0 {
		opts.Providers = 8
	}
	if opts.Window <= 0 {
		opts.Window = 64
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 3
	}
	if c.StoreURL == "" {
		c.StoreURL = "mem://"
	}
	res := LargeObjectResult{Case: c, Size: opts.Size}

	pool, _, _, err := provider.NewPool(provider.PoolConfig{N: opts.Providers, StoreURL: c.StoreURL})
	if err != nil {
		return res, err
	}
	node, err := remote.Listen("127.0.0.1:0", remote.Roles{
		VM:   vmanager.New(iosim.CostModel{}),
		Meta: metadata.NewStore(8, iosim.CostModel{}),
		Data: provider.NewRouter(pool),
	})
	if err != nil {
		return res, err
	}
	defer node.Close()
	ep := remote.Endpoints{VM: node.Addr(), Meta: node.Addr(), Data: node.Addr()}
	var client *remote.Client
	if c.Framed {
		client, err = remote.DialFramed(ep)
	} else {
		client, err = remote.Dial(ep)
	}
	if err != nil {
		return res, err
	}
	defer client.Close()

	geo := segtree.Geometry{Capacity: cluster.CapacityFor(opts.Size, opts.ChunkSize), Page: opts.ChunkSize}
	b, err := blob.Create(client.Services(), 1, geo)
	if err != nil {
		return res, err
	}

	// A repeating 4 KiB stamp: cheap to fill, position-dependent enough
	// that swapped or torn chunks cannot verify.
	data := make([]byte, opts.Size)
	stamp := make([]byte, 4096)
	for i := range stamp {
		stamp[i] = byte(i*7 + 13)
	}
	for off := 0; off < len(data); off += len(stamp) {
		copy(data[off:], stamp)
	}

	// Each round writes a fresh version of the same object (chunk keys
	// carry the version, so rounds never collide) and reads it back;
	// the best round of each direction is reported. The explicit GC
	// between timed sections keeps one cell's garbage from being
	// collected on another cell's clock — E17's product is the ratio
	// between cells, so leveling the debt matters more than realism.
	for round := 0; round < opts.Rounds; round++ {
		runtime.GC()
		start := time.Now()
		v, err := b.Write(0, data, blob.WriteOptions{Pipelined: c.Pipelined, Window: opts.Window})
		if err != nil {
			return res, fmt.Errorf("bench: %s write: %w", c.Name(), err)
		}
		wElapsed := time.Since(start)

		runtime.GC()
		start = time.Now()
		got, err := b.ReadAt(v, 0, opts.Size)
		if err != nil {
			return res, fmt.Errorf("bench: %s read: %w", c.Name(), err)
		}
		rElapsed := time.Since(start)
		if int64(len(got)) != opts.Size {
			return res, fmt.Errorf("bench: %s read %d bytes, want %d", c.Name(), len(got), opts.Size)
		}
		if c.Backend() != "null" && !bytes.Equal(got, data) {
			return res, fmt.Errorf("bench: %s payload mismatch after round trip", c.Name())
		}
		if round == 0 || wElapsed < res.WriteElapsed {
			res.WriteElapsed = wElapsed
		}
		if round == 0 || rElapsed < res.ReadElapsed {
			res.ReadElapsed = rElapsed
		}
	}

	mb := float64(opts.Size) / (1 << 20)
	if s := res.WriteElapsed.Seconds(); s > 0 {
		res.WriteMBps = mb / s
	}
	if s := res.ReadElapsed.Seconds(); s > 0 {
		res.ReadMBps = mb / s
	}
	return res, nil
}
