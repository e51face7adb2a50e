package extent

import "fmt"

// Vec pairs an extent list with a single flat memory buffer laid out in
// list order, mirroring the List I/O convention: the first l[0].Length
// bytes of Buf belong to l[0], the next l[1].Length bytes to l[1], and
// so on. This is the unit of a non-contiguous read or write request.
type Vec struct {
	Extents List
	Buf     []byte
}

// NewVec validates that the buffer length matches the total extent
// length and returns the vector.
func NewVec(extents List, buf []byte) (Vec, error) {
	if err := extents.Validate(); err != nil {
		return Vec{}, err
	}
	if got, want := int64(len(buf)), extents.TotalLength(); got != want {
		return Vec{}, fmt.Errorf("extent: buffer length %d does not match extent total %d", got, want)
	}
	return Vec{Extents: extents, Buf: buf}, nil
}

// Slice returns the sub-buffer of Buf corresponding to extent index i.
func (v Vec) Slice(i int) []byte {
	var start int64
	for j := 0; j < i; j++ {
		start += v.Extents[j].Length
	}
	return v.Buf[start : start+v.Extents[i].Length]
}

// ForEach invokes fn for every (extent, sub-buffer) pair in order.
// Iteration stops at the first error.
func (v Vec) ForEach(fn func(e Extent, b []byte) error) error {
	var start int64
	for _, e := range v.Extents {
		if err := fn(e, v.Buf[start:start+e.Length]); err != nil {
			return err
		}
		start += e.Length
	}
	return nil
}

// ScatterInto copies the vector's data into a flat image buffer that
// represents the file contents starting at base. Bytes outside the image
// are ignored. Used by tests, the verifier and the data-sieve driver to
// materialize file states.
func (v Vec) ScatterInto(image []byte, base int64) {
	var start int64
	for _, e := range v.Extents {
		src := v.Buf[start : start+e.Length]
		start += e.Length
		lo := e.Offset - base
		if a, b := clampSpan(lo, e.Length, int64(len(image))); a < b {
			copy(image[a:b], src[a-lo:b-lo])
		}
	}
}

// GatherFrom fills the vector's buffer from a flat image representing
// file contents starting at base. Bytes outside the image read as zero.
func (v Vec) GatherFrom(image []byte, base int64) {
	var start int64
	for _, e := range v.Extents {
		dst := v.Buf[start : start+e.Length]
		start += e.Length
		lo := e.Offset - base
		a, b := clampSpan(lo, e.Length, int64(len(image)))
		if a >= b {
			clear(dst)
			continue
		}
		clear(dst[:a-lo])
		copy(dst[a-lo:b-lo], image[a:b])
		clear(dst[b-lo:])
	}
}

// clampSpan clips the span [lo, lo+n) to an image of the given size and
// returns the surviving image range [a, b); a >= b when nothing is left.
func clampSpan(lo, n, size int64) (a, b int64) {
	return max(lo, 0), min(lo+n, size)
}
