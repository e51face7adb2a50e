package main

import (
	"testing"

	"repro/internal/extent"
)

// The checkers must reject torn and mis-stamped data, or a benchmark
// that reports correct=true proves nothing.

func overlapImage(exts []extent.List, span int64, painted ...writeRec) []byte {
	img := make([]byte, span)
	for _, w := range painted {
		paint(img, 0, exts[w.client], w.stamp)
	}
	return img
}

func TestOverlapCheckerRejectsTornAndMisstampedImages(t *testing.T) {
	exts := []extent.List{overlapSpec.ExtentsFor(0), overlapSpec.ExtentsFor(1)}
	span := overlapSpec.FileSpan()
	a, b, c := writeRec{0, 1, 0xA}, writeRec{1, 2, 0xB}, writeRec{0, 3, 0xC}
	log := []writeRec{a, b, c}

	// At v2 client 1 wrote last, so its stamp owns the overlap; at v3
	// client 0's newer call owns it.
	good2 := overlapImage(exts, span, a, b)
	if err := checkOverlapSnapshot(exts, log, 2, good2); err != nil {
		t.Fatalf("correct v2 image rejected: %v", err)
	}
	if err := checkOverlapSnapshot(exts, log, 3, overlapImage(exts, span, b, c)); err != nil {
		t.Fatalf("correct v3 image rejected: %v", err)
	}

	torn := append([]byte(nil), good2...)
	// Stripe 5's overlap is [5*6K+1K, 5*6K+4K); give its first half
	// back to client 0, as an interleaved write would.
	lo := 5*6<<10 + 1<<10
	paint(torn[lo:lo+1536], int64(lo), exts[0], a.stamp)
	for name, img := range map[string][]byte{
		"torn overlap":          torn,
		"older writer on top":   overlapImage(exts, span, b, a),
		"future write visible":  overlapImage(exts, span, c, b),
		"stale client stamp":    overlapImage(exts, span, writeRec{0, 1, 0xD}, b),
		"missing client writes": overlapImage(exts, span, b),
	} {
		if err := checkOverlapSnapshot(exts, log, 2, img); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSegmentCheckerRejectsTornAndMisstampedSegments(t *testing.T) {
	const off, size = 3 * 16 << 10, 16 << 10
	seg := make([]byte, size)
	paint(seg, off, extent.List{{Offset: off, Length: size}}, 0xBEEF)
	if s, err := segmentStamp(seg, off); err != nil || s != 0xBEEF {
		t.Fatalf("segmentStamp = %#x, %v; want 0xbeef", s, err)
	}
	torn := append([]byte(nil), seg...)
	paint(torn[size/2:], off+size/2, extent.List{{Offset: off, Length: size}}, 0xF00D)
	if _, err := segmentStamp(torn, off); err == nil {
		t.Error("torn segment accepted")
	}
	if _, err := segmentStamp(seg, off+size); err == nil {
		t.Error("segment read from the wrong offset accepted")
	}

	log := []writeRec{{1, 2, 0x1}, {1, 4, 0x2}, {0, 3, 0x9}}
	cases := []struct {
		name string
		read segRead
		ok   bool
	}{
		{"current", segRead{peer: 1, version: 3, stamp: 0x1}, true},
		{"latest", segRead{peer: 1, version: 5, stamp: 0x2}, true},
		{"future write visible", segRead{peer: 1, version: 3, stamp: 0x2}, false},
		{"stale write", segRead{peer: 1, version: 4, stamp: 0x1}, false},
		{"other rank's stamp", segRead{peer: 1, version: 3, stamp: 0x9}, false},
		{"before any write", segRead{peer: 1, version: 1, stamp: 0x1}, false},
	}
	for i, tc := range cases {
		tc.read.read = i
		failed, err := checkSegmentReads(log, 2, []segRead{tc.read})
		if ok := failed == 0; ok != tc.ok {
			t.Errorf("%s: failed=%d err=%v, want ok=%v", tc.name, failed, err, tc.ok)
		}
	}
}

func TestStreamCheckerRejectsCorruptReads(t *testing.T) {
	want := make([]byte, 1<<16)
	stampRound(want, 7)
	if err := checkStream(append([]byte(nil), want...), want); err != nil {
		t.Fatalf("identical read rejected: %v", err)
	}
	flipped := append([]byte(nil), want...)
	flipped[12345] ^= 1
	if err := checkStream(flipped, want); err == nil {
		t.Error("flipped byte accepted")
	}
	other := append([]byte(nil), want...)
	stampRound(other, 8) // another round's version
	if err := checkStream(other, want); err == nil {
		t.Error("another round's version accepted")
	}
	if err := checkStream(want[:len(want)-1], want); err == nil {
		t.Error("short read accepted")
	}
}
