package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/extent"
)

// Every byte a workload writes is a function of the call's stamp and
// the byte's file offset: word i of the file (bytes 8i..8i+7) holds
// stamp ^ i*golden. A byte read back therefore names the call that
// wrote it, and a byte that landed at the wrong offset decodes to a
// different stamp, so torn, misplaced and stale data all fail to
// verify.
const golden = 0x9E3779B97F4A7C15

func stampWord(stamp uint64, word int64) uint64 { return stamp ^ uint64(word)*golden }

// stampByte is the byte a call with the given stamp leaves at file
// offset off.
func stampByte(stamp uint64, off int64) byte {
	return byte(stampWord(stamp, off>>3) >> (8 * (off & 7)))
}

// paint writes the stamped contents of a call over the extents ext
// into img, where img[0] is file offset base. Extents outside img are
// clipped.
func paint(img []byte, base int64, ext extent.List, stamp uint64) {
	for _, e := range ext {
		lo, hi := max(e.Offset, base), min(e.End(), base+int64(len(img)))
		for off := lo; off < hi; off++ {
			img[off-base] = stampByte(stamp, off)
		}
	}
}

// stampedBuffer returns the write buffer of a call that writes ext
// with the given stamp, laid out in list order as extent.Vec expects.
func stampedBuffer(ext extent.List, stamp uint64) []byte {
	buf := make([]byte, ext.TotalLength())
	pos := int64(0)
	for _, e := range ext {
		paint(buf[pos:pos+e.Length], e.Offset, extent.List{e}, stamp)
		pos += e.Length
	}
	return buf
}

// writeRec logs one completed atomic write: which client issued it,
// the snapshot version it produced and the stamp its bytes carry.
type writeRec struct {
	client  int
	version uint64
	stamp   uint64
}

// latestAtOrBelow returns, per client, the newest logged write whose
// version is at or below v; ok[c] is false when client c had none.
func latestAtOrBelow(log []writeRec, clients int, v uint64) (recs []writeRec, ok []bool) {
	recs = make([]writeRec, clients)
	ok = make([]bool, clients)
	for _, w := range log {
		if w.version <= v && (!ok[w.client] || w.version > recs[w.client].version) {
			recs[w.client], ok[w.client] = w, true
		}
	}
	return recs, ok
}

// checkOverlapSnapshot verifies a full image [0, len(img)) of snapshot
// v of the overlapping-writers blob. For each client the expected
// state holds its latest write at or below v; where two clients'
// extents overlap, the write with the higher version must own every
// byte of the overlap, and everywhere else each client's own stamp
// must show. Bytes no write covers must read as zero.
func checkOverlapSnapshot(extents []extent.List, log []writeRec, v uint64, img []byte) error {
	recs, ok := latestAtOrBelow(log, len(extents), v)
	want := make([]byte, len(img))
	// Paint in version order so the newer write owns the overlap.
	order := make([]int, 0, len(extents))
	for c := range extents {
		if ok[c] {
			order = append(order, c)
		}
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && recs[order[j]].version < recs[order[j-1]].version; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, c := range order {
		paint(want, 0, extents[c], recs[c].stamp)
	}
	if bytes.Equal(want, img) {
		return nil
	}
	for off := range img {
		if img[off] != want[off] {
			return fmt.Errorf("snapshot v%d: byte %d reads %#02x, want %#02x", v, off, img[off], want[off])
		}
	}
	return fmt.Errorf("snapshot v%d: image is %d bytes, want %d", v, len(img), len(want))
}

// segmentStamp decodes the stamp of one segment read back from file
// offset off (a multiple of 8) and verifies that every byte of the
// segment carries that same stamp, so a torn segment is rejected.
func segmentStamp(data []byte, off int64) (uint64, error) {
	if off%8 != 0 || len(data) < 8 {
		return 0, fmt.Errorf("segment at %d: cannot decode %d bytes", off, len(data))
	}
	stamp := binary.LittleEndian.Uint64(data) ^ uint64(off>>3)*golden
	for i, b := range data {
		if b != stampByte(stamp, off+int64(i)) {
			return 0, fmt.Errorf("segment at %d: torn at byte %d (stamp %#x)", off, i, stamp)
		}
	}
	return stamp, nil
}

// segRead is one checkpoint segment observed by a restore read: the
// peer that owns it, the version read and the stamp decoded from it.
type segRead struct {
	read    int // index of the restore read, for counting failed reads
	peer    int
	version uint64
	offset  int64
	stamp   uint64
}

// checkSegmentReads verifies every restore observation against the
// write log: a segment read at version v must carry the stamp of its
// owner's last write at or below v. It returns how many distinct
// reads saw a wrong segment, and the first mismatch.
func checkSegmentReads(log []writeRec, ranks int, reads []segRead) (failed int, first error) {
	bad := make(map[int]bool)
	for _, r := range reads {
		recs, ok := latestAtOrBelow(log, ranks, r.version)
		var err error
		switch {
		case !ok[r.peer]:
			err = fmt.Errorf("segment at %d, v%d: rank %d has no write at or below v%d", r.offset, r.version, r.peer, r.version)
		case recs[r.peer].stamp != r.stamp:
			err = fmt.Errorf("segment at %d, v%d: stamp %#x, want rank %d's v%d stamp %#x",
				r.offset, r.version, r.stamp, r.peer, recs[r.peer].version, recs[r.peer].stamp)
		}
		if err != nil {
			bad[r.read] = true
			if first == nil {
				first = err
			}
		}
	}
	return len(bad), first
}

// checkStream verifies a whole-object read against the bytes written.
func checkStream(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("read %d bytes, wrote %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("byte %d reads %#02x, wrote %#02x", i, got[i], want[i])
		}
	}
	return nil
}
