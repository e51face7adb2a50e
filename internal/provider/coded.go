package provider

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/chunk"
)

// coded is erasure-coded placement: instead of R full copies, each
// chunk is Reed-Solomon encoded into k data + m parity fragments placed
// on k+m distinct providers (domain-spread by the same allocator
// replication uses). Any k fragments reconstruct the chunk, so
// durability matches m-loss replication at (k+m)/k storage overhead
// instead of R.
//
// # Coded placement contract
//
//   - Placement is POSITIONAL: the i-th entry of a coded chunk's
//     replica set is the provider holding fragment i (0..k-1 data,
//     k..k+m-1 parity). Every placement entry has exactly k+m
//     positions — a write records all of them, landed or not; a
//     position whose provider lost (or never stored) its fragment is
//     detected by store probes, not by a sentinel.
//   - Fragment content is a pure function of (chunk bytes, position),
//     so a provider that ever held position i holds bytes valid for
//     position i forever (chunks are immutable). Repair therefore
//     NEVER tolerates chunk.ErrExists on a new target: an existing key
//     there is some other position's orphan, and recording it would
//     serve wrong bytes.
//   - Reads serve the requested sub-range straight from the data
//     fragments it touches (no decode); any fragment failure falls
//     back to degraded reconstruction from any k fragments. Coded reads
//     count as locality "flat" — fragments are spread across domains by
//     design, so a "local read" of one chunk does not exist — and
//     streaming reads share the buffered, read-cached path, since a
//     range spanning fragments cannot splice one store file anyway.
//   - Repair re-encodes: it reads any k surviving fragments, rebuilds
//     the missing positions, and writes each one to a fresh provider
//     in-position, preferring failure domains the survivors do not
//     cover. Fewer than k survivors is data loss (RepairLost).
//   - Replica-set hints are refreshed but never trusted for reads:
//     positions may have moved since the hint was recorded, and a
//     positional misread cannot always be detected. Placement is the
//     only read authority; a hint that differs from it (ordered
//     compare — position matters) returns a fresh set.
//
// Layout selection is boot-time configuration: switching a router with
// recorded placement between replicated and coded layouts is not
// supported (existing entries would be misread under the other
// layout's semantics).
type coded struct{ *chunk.RSCode }

// ParseCoding parses an "rs-<k>+<m>" coding spec ("rs-4+2"). The empty
// string means coding off (k=0, m=0, nil error).
func ParseCoding(s string) (k, m int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	rest, ok := strings.CutPrefix(s, "rs-")
	if !ok {
		return 0, 0, fmt.Errorf("provider: coding spec %q: want rs-<k>+<m>", s)
	}
	if _, err := fmt.Sscanf(rest, "%d+%d", &k, &m); err != nil {
		return 0, 0, fmt.Errorf("provider: coding spec %q: want rs-<k>+<m>", s)
	}
	if _, err := chunk.NewRSCode(k, m); err != nil {
		return 0, 0, err
	}
	return k, m, nil
}

// SetCoding switches the router to erasure-coded placement with k data
// and m parity fragments per chunk. SetCoding(0, 0) turns coding off
// (back to replication). Coded placement supersedes SetReplicas: the
// effective placement degree becomes k+m. Configure before storing any
// chunks — see the layout-selection note on the coded contract.
func (r *Router) SetCoding(k, m int) error {
	var code *chunk.RSCode
	if k != 0 || m != 0 {
		var err error
		if code, err = chunk.NewRSCode(k, m); err != nil {
			return err
		}
	}
	r.cfg.Lock()
	r.code = code
	r.cfg.Unlock()
	return nil
}

// Coding reports the configured erasure code (on=false means the
// router replicates).
func (r *Router) Coding() (k, m int, on bool) {
	r.cfg.RLock()
	defer r.cfg.RUnlock()
	if r.code == nil {
		return 0, 0, false
	}
	return r.code.K, r.code.M, true
}

func (c coded) degree() int      { return c.K + c.M }
func (c coded) quorumFloor() int { return c.K }

// allocate passes an empty non-nil have, selecting allocateSpread's
// water-fill mode: fragments still land one per domain while enough
// domains are live, but a stripe as wide as the domain count must not
// refuse every write during a single domain outage — it doubles up in
// the survivors and the spread audit re-spreads once the domain
// returns.
func (c coded) allocate(m *Manager) ([]*Provider, error) {
	return m.allocateSpread(c.degree(), nil, map[string]int{})
}

func (c coded) encode(data []byte) [][]byte { return c.Encode(data) }

// placed records all k+m positions: the ones whose store failed are
// found by the probe-based repair path, which re-encodes them.
func (coded) placed(targets []*Provider, _ []ID) []ID {
	ids := make([]ID, len(targets))
	for i, p := range targets {
		ids[i] = p.ID()
	}
	return ids
}

func (coded) whole() bool            { return false }
func (coded) sameSet(a, b []ID) bool { return sameIDList(a, b) }

// sameIDList reports whether two ID slices are identical INCLUDING
// order — the comparison coded placement needs, where the i-th entry
// is fragment i's home and a permutation is a different placement.
func sameIDList(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// read serves one sub-range from the positional set ids. The direct
// path reads only the data fragments the range touches; any failure
// there falls back to degraded reconstruction from any k full
// fragments, which feeds the repair queue. Every real store attempt
// feeds the health monitor.
func (c coded) read(r *Router, ids []ID, key chunk.Key, off, length int64) ([]byte, bool, error) {
	var start time.Time
	if r.met.getSec != nil {
		start = time.Now()
	}
	data, degraded, err := c.readRange(r, ids, key, off, length)
	if err != nil {
		return nil, degraded, err
	}
	if degraded {
		r.noteDegraded(key)
	}
	r.met.getFlat.Inc()
	if r.met.getSec != nil {
		r.met.getSec.ObserveSince(start)
	}
	return data, degraded, nil
}

func (c coded) readRange(r *Router, ids []ID, key chunk.Key, off, length int64) (data []byte, degraded bool, err error) {
	n := c.degree()
	if len(ids) != n {
		return nil, false, fmt.Errorf("provider: coded placement of %s has %d positions, want %d", key, len(ids), n)
	}
	if off < 0 || length < 0 {
		return nil, false, fmt.Errorf("provider: invalid coded read [%d, %d) of %s", off, off+length, key)
	}
	if length == 0 {
		return []byte{}, false, nil
	}
	// Fragment size: all k+m fragments of a chunk are equal by
	// construction, so the first live fragment's Len is authoritative.
	ss := int64(-1)
	var lastErr error
	for _, id := range ids {
		p := r.byID(id)
		if p == nil || p.Down() {
			continue
		}
		sz, lerr := p.Store().Len(key)
		r.reportError(id, lerr)
		if lerr != nil {
			lastErr = lerr
			continue
		}
		ss = sz
		break
	}
	if ss < 0 {
		if lastErr == nil {
			lastErr = ErrProviderDown
		}
		return nil, true, fmt.Errorf("provider: no readable fragment of %s: %w", key, lastErr)
	}
	if off+length > int64(c.K)*ss {
		return nil, false, fmt.Errorf("provider: coded read [%d, %d) of %s exceeds chunk bound %d", off, off+length, key, int64(c.K)*ss)
	}
	// span is the part of data fragment i the range covers.
	span := func(i int) (lo, hi int64) {
		return max(off-int64(i)*ss, 0), min(off+length-int64(i)*ss, ss)
	}
	first, last := int(off/ss), int((off+length-1)/ss)
	out := make([]byte, 0, length)
	for i := first; i <= last; i++ {
		p := r.byID(ids[i])
		if p == nil || p.Down() {
			degraded = true
			break
		}
		lo, hi := span(i)
		frag, gerr := p.Store().Get(key, lo, hi-lo)
		r.reportError(ids[i], gerr)
		if gerr != nil {
			degraded = true
			break
		}
		out = append(out, frag...)
	}
	if !degraded {
		return out, false, nil
	}
	// Degraded: collect any k full fragments and reconstruct.
	shards, got, ferr := c.fragments(r, key, ids, nil, ss)
	if got < c.K {
		if ferr == nil {
			ferr = ErrProviderDown
		}
		return nil, true, fmt.Errorf("provider: only %d of %d fragments of %s readable, need %d: %w",
			got, n, key, c.K, ferr)
	}
	if rerr := c.Reconstruct(shards); rerr != nil {
		return nil, true, rerr
	}
	out = out[:0]
	for i := first; i <= last; i++ {
		lo, hi := span(i)
		out = append(out, shards[i][lo:hi]...)
	}
	return out, true, nil
}

// fragments reads whole fragments of key, in position order, until k
// are in hand: shards[i] holds position i's bytes, got counts them and
// err is the last read failure. With live set only the positions it
// marks are read, and a position whose read fails is demoted to not
// live. size >= 0 rejects fragments of any other length; size < 0 reads
// each fragment's own Len. Every read feeds the health monitor.
func (c coded) fragments(r *Router, key chunk.Key, ids []ID, live []bool, size int64) (shards [][]byte, got int, err error) {
	shards = make([][]byte, len(ids))
	for i, id := range ids {
		if got >= c.K {
			break
		}
		if live != nil && !live[i] {
			continue
		}
		frag, ferr := r.readMember(id, key, size)
		if ferr != nil {
			err = ferr
			if live != nil {
				live[i] = false
			}
			continue
		}
		shards[i] = frag
		got++
	}
	return shards, got, err
}

// rebuild re-encodes: read any k surviving fragments, reconstruct, and
// write each missing position onto a fresh provider (excluding every
// recorded member, preferring uncovered failure domains). A target
// whose store rejects the fragment — including ErrExists, an orphan of
// some other position (see the contract) — is excluded and allocation
// retried, so one repair call converges past flag-lagging losses;
// rejections along the way only count as failures if the fragment
// never lands.
func (c coded) rebuild(r *Router, key chunk.Key, ids []ID, live []bool) (RepairOutcome, int, error) {
	n := c.degree()
	shards, got, err := c.fragments(r, key, ids, live, -1)
	if got < c.K {
		if countLive(live) < c.K {
			return RepairLost, 0, fmt.Errorf("provider: chunk %s has %d of %d readable fragments, need %d: %w", key, got, n, c.K, err)
		}
		return RepairPartial, 0, err
	}
	if err := c.Reconstruct(shards); err != nil {
		return RepairPartial, 0, err
	}
	exclude := make(map[ID]bool, n)
	have := make(map[string]int)
	for i, id := range ids {
		exclude[id] = true
		if live[i] {
			have[r.DomainOf(id)]++
		}
	}
	newIDs := append([]ID(nil), ids...)
	copied := 0
	var failures []error
	for i := 0; i < n; i++ {
		if live[i] {
			continue
		}
		var fragErrs []error
		for {
			targets, aerr := r.allocateSpread(1, exclude, have)
			if aerr != nil {
				failures = append(failures, append(fragErrs, aerr)...)
				break
			}
			p := targets[0]
			exclude[p.ID()] = true
			if werr := r.putOne(p, key, shards[i]); werr != nil {
				fragErrs = append(fragErrs, fmt.Errorf("provider %d (fragment %d): %w", p.ID(), i, werr))
				continue
			}
			newIDs[i] = p.ID()
			have[p.Domain()]++
			copied++
			break
		}
		if len(failures) > 0 {
			break // allocation is exhausted for every later position too
		}
	}
	if copied > 0 {
		r.setPlacement(key, newIDs)
	}
	if err := errors.Join(failures...); err != nil {
		return RepairPartial, copied, err
	}
	return RepairRepaired, copied, nil
}

// respread relocates the last fragment sitting in a crowded domain onto
// target: copy it there, delete the old copy (best effort — a failed
// delete leaves an orphan fragment outside placement, which blocks
// nothing: repair never reuses a provider already holding the key),
// and swap the position's entry.
func (coded) respread(r *Router, key chunk.Key, ids []ID, target *Provider, have map[string]int) ([]ID, error) {
	idx := -1
	for i := len(ids) - 1; i >= 0; i-- {
		if have[r.DomainOf(ids[i])] >= 2 {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, nil
	}
	p := r.byID(ids[idx])
	if p == nil || p.Down() {
		return nil, nil
	}
	frag, err := r.readMember(ids[idx], key, -1)
	if err != nil {
		return nil, err
	}
	if err := r.putOne(target, key, frag); err != nil {
		return nil, err
	}
	derr := p.Store().Delete(key)
	r.reportError(ids[idx], derr)
	out := append([]ID(nil), ids...)
	out[idx] = target.ID()
	return out, nil
}
