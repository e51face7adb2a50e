package provider

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chunk"
)

// layout answers "where do one chunk's bytes live?" — the only question
// on which the Router's two placements differ. The Router runs one
// skeleton over it (allocation, write quorum, health reporting,
// degraded-read accounting, read-cache fill and invalidation, the
// busy-claim exclusion) and asks the layout at each point where
// replication and erasure coding really diverge. Layout values are
// immutable; the Router derives the current one from its configuration
// (Router.layout).
type layout interface {
	// degree is the number of placement members every chunk should
	// have: R copies, or k+m fragments.
	degree() int
	// quorumFloor is the fewest landed members a write may commit with
	// — and so the fewest live members that still hold the chunk's
	// bytes: 1 copy, or k fragments.
	quorumFloor() int
	// allocate picks the write targets of a fresh chunk.
	allocate(m *Manager) ([]*Provider, error)
	// encode turns a chunk's bytes into one payload per target; nil
	// means every target stores the bytes as they are.
	encode(data []byte) [][]byte
	// placed is the placement a quorum-met write records, given its
	// targets and the IDs of those whose store landed.
	placed(targets []*Provider, landed []ID) []ID
	// whole reports whether every member holds the whole chunk. Then
	// any live member serves any sub-range, so a caller's hint may
	// serve a read and a streaming read may hand out one store's
	// reader.
	whole() bool
	// sameSet reports whether a hint names the same placement as ids:
	// as sets for interchangeable copies, position by position for
	// fragments.
	sameSet(a, b []ID) bool
	// read serves [off, off+length) of key from the members ids,
	// feeding the health monitor, the read metrics and the degraded
	// handler; failedOver reports whether the read had to route around
	// a dead or failing member.
	read(r *Router, ids []ID, key chunk.Key, off, length int64) (data []byte, failedOver bool, err error)
	// rebuild restores a chunk with at least quorumFloor live members
	// (live[i] is the probe result for ids[i]) to full degree and
	// records the new placement. Caller holds the chunk's claim.
	rebuild(r *Router, key chunk.Key, ids []ID, live []bool) (RepairOutcome, int, error)
	// respread moves one member of a full-degree chunk onto target, a
	// live provider in a failure domain the set does not cover (have
	// counts the set's domains), and returns the placement to record —
	// nil when no member can move. Caller holds the chunk's claim.
	respread(r *Router, key chunk.Key, ids []ID, target *Provider, have map[string]int) ([]ID, error)
}

// ValidatePlacement checks a placement configuration against a pool of
// providers — the one validator for every deployment path. replicas
// may not exceed the pool, and a write quorum may not exceed R. A
// coding spec (see ParseCoding; "" means replication) must parse, is
// mutually exclusive with replicas > 1, needs k+m providers, and takes
// a write quorum (0 = default) within [k, k+m].
func ValidatePlacement(providers, replicas int, coding string, quorum int) error {
	if replicas > providers {
		return fmt.Errorf("provider: %d replicas exceed %d providers", replicas, providers)
	}
	k, m, err := ParseCoding(coding)
	switch {
	case err != nil:
		return err
	case coding == "":
		if r := max(replicas, 1); quorum > r {
			return fmt.Errorf("provider: write quorum %d exceeds %d replicas", quorum, r)
		}
	case replicas > 1:
		return fmt.Errorf("provider: coding %q is mutually exclusive with %d replicas", coding, replicas)
	case k+m > providers:
		return fmt.Errorf("provider: coding %q needs %d providers, have %d", coding, k+m, providers)
	case quorum != 0 && (quorum < k || quorum > k+m):
		return fmt.Errorf("provider: write quorum %d outside [%d, %d] for coding %q", quorum, k, k+m, coding)
	}
	return nil
}

// replicated stores R whole copies of a chunk on R distinct providers.
// Copies are interchangeable: reads fail over across them in any order,
// and placement is a set.
type replicated struct{ copies int }

func (l replicated) degree() int    { return l.copies }
func (replicated) quorumFloor() int { return 1 }

// allocate keeps AllocateN's strict distinct-domain promise: R is
// normally far below the domain count, so a refusal there signals
// misconfiguration, not an outage.
func (l replicated) allocate(m *Manager) ([]*Provider, error) { return m.AllocateN(l.copies) }

func (replicated) encode([]byte) [][]byte { return nil }

// placed records only the copies that landed.
func (replicated) placed(_ []*Provider, landed []ID) []ID { return landed }

func (replicated) whole() bool            { return true }
func (replicated) sameSet(a, b []ID) bool { return sameIDSet(a, b) }

func (replicated) read(r *Router, ids []ID, key chunk.Key, off, length int64) ([]byte, bool, error) {
	return failover(r, ids, key, length, func(s chunk.Store) ([]byte, error) { return s.Get(key, off, length) })
}

// rebuild copies the chunk from a survivor onto enough new providers to
// restore R copies. The survivors' failure domains are handed to the
// allocator as already covered, so new copies land in uncovered domains
// first — a repair after a domain loss restores the spread along with
// the count. Dead members drop out of placement, so a stale dead entry
// beside a full live set is simply pruned.
func (l replicated) rebuild(r *Router, key chunk.Key, ids []ID, live []bool) (RepairOutcome, int, error) {
	out := make([]ID, 0, l.copies)
	exclude := make(map[ID]bool, len(ids))
	have := make(map[string]int, len(ids))
	for i, id := range ids {
		if live[i] {
			out = append(out, id)
			exclude[id] = true
			have[r.DomainOf(id)]++
		}
	}
	survivors := len(out)
	var data []byte
	if survivors < l.copies {
		var err error
		if data, err = r.readFull(key, out); err != nil {
			return RepairPartial, 0, err
		}
	}
	// A target whose store fails the copy (a dead machine the health
	// monitor has not flagged yet) is excluded and allocation retried,
	// so one repair call converges past flag-lagging losses instead of
	// waiting for detection. The loop terminates: every round either
	// places a copy or grows the exclusion set.
	var lastErr error
	for missing := l.copies - survivors; missing > 0; missing = l.copies - len(out) {
		targets, aerr := r.allocateSpread(missing, exclude, have)
		if aerr != nil {
			if lastErr == nil {
				lastErr = aerr
			}
			// Record the copies that DID land: invisible copies would be
			// orphans — unreadable, re-copied by the next repair, and
			// never reclaimed by DeleteReplicas.
			if len(out) > survivors {
				r.setPlacement(key, out)
			}
			return RepairPartial, len(out) - survivors, lastErr
		}
		for _, p := range targets {
			exclude[p.ID()] = true
			// Tolerate ErrExists: an earlier partial repair or a
			// quorum-failed Put may have left a valid copy here.
			if err := r.putOne(p, key, data); err != nil && !errors.Is(err, chunk.ErrExists) {
				lastErr = fmt.Errorf("provider %d: %w", p.ID(), err)
				continue
			}
			out = append(out, p.ID())
			have[p.Domain()]++
		}
	}
	r.setPlacement(key, out)
	return RepairRepaired, len(out) - survivors, nil
}

// respread copies the chunk onto target, then deletes one copy from the
// most crowded domain, so coverage strictly improves. The LAST
// reachable copy in a domain with two or more goes, keeping the
// earliest-written copy in place. A failed delete leaves the extra copy
// in placement (harmless: one copy above degree); the scrubber re-finds
// above-degree sets and RepairChunk retires them via trimExcess.
func (replicated) respread(r *Router, key chunk.Key, ids []ID, target *Provider, have map[string]int) ([]ID, error) {
	data, err := r.readFull(key, ids)
	if err != nil {
		return nil, err
	}
	if err := r.putOne(target, key, data); err != nil && !errors.Is(err, chunk.ErrExists) {
		return nil, err
	}
	out := append([]ID(nil), ids...)
	for i := len(out) - 1; i >= 0; i-- {
		id := out[i]
		if have[r.DomainOf(id)] < 2 {
			continue
		}
		p := r.byID(id)
		if p == nil || p.Down() {
			continue
		}
		derr := p.Store().Delete(key)
		r.reportError(id, derr)
		if derr == nil || errors.Is(derr, chunk.ErrNotFound) {
			out = append(out[:i], out[i+1:]...)
		}
		break
	}
	return append(out, target.ID()), nil
}

// failover is the read loop of interchangeable copies, parameterised by
// the store call (a buffered Get or a streaming OpenReader): it tries
// each member in preference order (see replicaOrder) and returns the
// first success. Down or unknown members are skipped, and a store error
// moves on to the next copy. Every real store attempt reports its
// outcome to the health monitor; a success feeds the read metrics and,
// when a reader domain is set, the locality counters; a success that
// needed failover feeds read-repair via maybeNoteDegraded.
func failover[T any](r *Router, ids []ID, key chunk.Key, length int64, call func(chunk.Store) (T, error)) (out T, failedOver bool, err error) {
	if len(ids) == 0 {
		return out, false, fmt.Errorf("%w: %s (empty replica set)", chunk.ErrNotFound, key)
	}
	var start time.Time
	if r.met.getSec != nil {
		start = time.Now()
	}
	local, prefer := r.readLocality()
	skips, storeErrs := 0, 0
	var lastErr error
	for _, id := range r.replicaOrder(ids, local, prefer) {
		p := r.byID(id)
		if p == nil {
			lastErr = fmt.Errorf("provider: placement references unknown provider %d", id)
			skips++
			continue
		}
		if p.Down() {
			lastErr = fmt.Errorf("provider %d: %w", id, ErrProviderDown)
			skips++
			continue
		}
		v, err := call(p.Store())
		r.reportError(id, err)
		if err != nil {
			storeErrs++
			lastErr = fmt.Errorf("provider %d: %w", id, err)
			continue
		}
		switch {
		case local == "":
			r.met.getFlat.Inc()
		case p.Domain() == local:
			r.met.getLocal.Inc()
			r.locLocalReads.Add(1)
			r.locLocalBytes.Add(length)
		default:
			r.met.getRemote.Inc()
			r.locRemoteReads.Add(1)
			r.locRemoteBytes.Add(length)
		}
		if r.met.getSec != nil {
			r.met.getSec.ObserveSince(start)
		}
		if skips+storeErrs > 0 {
			r.maybeNoteDegraded(key, storeErrs)
		}
		return v, skips+storeErrs > 0, nil
	}
	return out, true, fmt.Errorf("provider: all %d replicas of %s failed: %w", len(ids), key, lastErr)
}

// readVia is the read skeleton under Get, GetFrom, OpenReader and
// OpenFrom; read serves one member set (the layout's buffered read, or
// a streaming open of whole copies). When the layout lets a hint
// serve reads it tries the caller's hint first. Otherwise — no hint,
// every hinted member failed, or a positional layout — it snapshots
// placement ONCE and reads exactly that snapshot, so the fresh set it
// returns is the set that served the read (a Locate after the read
// would let a repair slip in between). fresh is nil exactly when the
// hint is current: it served the read without failover, or placement
// still matches it.
func readVia[T any](r *Router, lay layout, hint []ID, key chunk.Key, off, length int64,
	read func(r *Router, ids []ID, key chunk.Key, off, length int64) (T, bool, error)) (out T, fresh []ID, err error) {
	if lay.whole() && len(hint) > 0 {
		out, failedOver, err := read(r, hint, key, off, length)
		if err == nil {
			if failedOver {
				if ids, ok := r.Locate(key); ok && !lay.sameSet(ids, hint) {
					return out, ids, nil
				}
			}
			return out, nil, nil
		}
	}
	ids, ok := r.Locate(key)
	if !ok {
		return out, nil, fmt.Errorf("%w: %s", chunk.ErrNotFound, key)
	}
	if out, _, err = read(r, ids, key, off, length); err != nil {
		return out, nil, err
	}
	if lay.sameSet(ids, hint) {
		return out, nil, nil
	}
	return out, ids, nil
}
