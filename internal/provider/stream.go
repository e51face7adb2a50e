package provider

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"repro/internal/chunk"
)

// This file is the Router's streaming data plane: chunk writes fed
// from an io.Reader and chunk reads served as an io.ReadCloser, so the
// remote framed transport can move payloads socket→store and
// store→socket without materializing them. Placement, quorum, health
// reporting and degraded-read accounting are shared with the buffered
// Put/Get paths; only the payload transport differs.

// DefaultMaxChunkSize bounds the declared size of a streamed chunk put
// when SetMaxChunkSize was never called. Generous — chunks are
// normally a few MiB — while still refusing the pathological sizes a
// corrupt or hostile wire header can declare.
const DefaultMaxChunkSize = 1 << 30

// ErrChunkTooLarge is the sentinel matched (via errors.Is) by
// ChunkTooLargeError.
var ErrChunkTooLarge = errors.New("provider: chunk exceeds max chunk size")

// ChunkTooLargeError rejects a streamed put whose declared size is
// negative or exceeds the configured bound. The check runs before ANY
// buffer allocation: PutStream above R=1 (and under coding)
// materializes the payload into a size-sized buffer, and the size comes
// straight from the wire header — an unchecked value would let one
// corrupt frame force an arbitrary allocation.
type ChunkTooLargeError struct {
	Size int64 // declared payload size
	Max  int64 // configured bound
}

// Error implements error.
func (e *ChunkTooLargeError) Error() string {
	return fmt.Sprintf("provider: declared chunk size %d exceeds max chunk size %d", e.Size, e.Max)
}

// Is matches the ErrChunkTooLarge sentinel.
func (e *ChunkTooLargeError) Is(target error) bool { return target == ErrChunkTooLarge }

// SetMaxChunkSize bounds the declared size PutStream accepts; v <= 0
// restores DefaultMaxChunkSize.
func (r *Router) SetMaxChunkSize(v int64) {
	r.cfg.Lock()
	r.maxChunk = v
	r.cfg.Unlock()
}

// MaxChunkSize returns the effective streamed-put size bound.
func (r *Router) MaxChunkSize() int64 {
	r.cfg.RLock()
	defer r.cfg.RUnlock()
	if r.maxChunk <= 0 {
		return DefaultMaxChunkSize
	}
	return r.maxChunk
}

// PutStream stores a chunk whose payload arrives as a stream of
// exactly size bytes. With R == 1 (the default) the stream is handed
// straight to the provider's store — the zero-copy fast path the
// framed transport exists for. With R > 1, and under coding, the
// payload must be materialized once anyway to fan out to the targets,
// so the stream is buffered and delegated to Put (quorum, health and
// degraded accounting included). The declared size is bounded by
// MaxChunkSize before anything is allocated; an oversize or negative
// size fails with a typed *ChunkTooLargeError. Callers must not retry a
// failed PutStream with the same reader: the stream may be partially
// consumed.
func (r *Router) PutStream(key chunk.Key, size int64, rd io.Reader) ([]ID, error) {
	if max := r.MaxChunkSize(); size < 0 || size > max {
		return nil, &ChunkTooLargeError{Size: size, Max: max}
	}
	lay := r.layout()
	if lay.degree() > 1 {
		buf := make([]byte, size)
		if _, err := io.ReadFull(rd, buf); err != nil {
			return nil, fmt.Errorf("provider: stream %s: %w", key, err)
		}
		return r.put(lay, key, buf)
	}
	start := r.putStart()
	targets, err := lay.allocate(r.Manager)
	if err != nil {
		return nil, err
	}
	p := targets[0]
	err = ErrProviderDown
	if !p.Down() {
		err = p.Store().PutFromReader(key, size, rd)
		r.reportError(p.ID(), err)
	}
	return r.commit(lay, key, size, targets, []error{err}, start)
}

// OpenReader opens a streaming read over a chunk sub-range, failing
// over across copies at open time exactly like Get (down providers
// skipped, open errors move to the next copy, locality-ordered).
// Unlike Get, failover covers only the open: once a stream is handed
// out, a mid-stream error surfaces to the caller, because bytes may
// already have left for the consumer. The read cache is bypassed —
// streaming reads exist for payloads too large to cache. Coded chunks
// are the exception: a range spanning fragments cannot be one store's
// stream, so they are served by Get (read cache included) behind a
// reader.
func (r *Router) OpenReader(key chunk.Key, off, length int64) (io.ReadCloser, error) {
	lay := r.layout()
	if !lay.whole() {
		data, err := r.Get(key, off, length)
		return readCloser(data, err), err
	}
	rc, _, err := readVia(r, lay, nil, key, off, length, openCopy)
	return rc, err
}

// OpenFrom opens a streaming read trying the given replica hint first,
// with the same fallback-to-placement and fresh-set semantics as
// GetFrom (minus the read cache, which streaming bypasses): a non-nil
// fresh return means the hint is stale and the caller should replace
// it. Coded chunks are served by GetFrom behind a reader, as in
// OpenReader.
func (r *Router) OpenFrom(hint []ID, key chunk.Key, off, length int64) (rc io.ReadCloser, fresh []ID, err error) {
	lay := r.layout()
	if !lay.whole() {
		data, fresh, err := r.GetFrom(hint, key, off, length)
		return readCloser(data, err), fresh, err
	}
	return readVia(r, lay, hint, key, off, length, openCopy)
}

// openCopy is the streaming read of a set of whole copies: failover
// over the stores' OpenReader.
func openCopy(r *Router, ids []ID, key chunk.Key, off, length int64) (io.ReadCloser, bool, error) {
	return failover(r, ids, key, length, func(s chunk.Store) (io.ReadCloser, error) { return s.OpenReader(key, off, length) })
}

// readCloser wraps a buffered read's result as a stream (nil on error).
func readCloser(data []byte, err error) io.ReadCloser {
	if err != nil {
		return nil
	}
	return io.NopCloser(bytes.NewReader(data))
}
