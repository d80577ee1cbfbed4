package core

import (
	"repro/internal/block"
	"repro/internal/tier"
)

// PinnedRead is a zero-copy view of cache-resident blocks returned by
// Store.ReadPinned. The views alias the cache's own frame buffers — SSD
// shard frames or RAM-tier frames: they are immutable (concurrent writes
// to a pinned block go copy-on-write into a fresh frame, and tier frames
// are invalidated, never mutated) and stay valid until Release, which
// must be called exactly once — typically after the bytes have been
// written to a wire.
type PinnedRead struct {
	views  [][]byte
	shards []*shard // parallel to views; nil entries are RAM-tier views
	// tierPins parallels views when any RAM-tier frame is pinned (nil
	// otherwise, so the tierless path allocates exactly as before);
	// entries where shards[i] != nil are zero.
	tierPins []tier.Pin
}

// Views returns the pinned block frames in request order. Callers must
// not mutate or retain them past Release.
func (pr *PinnedRead) Views() [][]byte { return pr.views }

// Blocks returns the number of pinned blocks.
func (pr *PinnedRead) Blocks() int { return len(pr.views) }

// Bytes returns the total pinned payload size.
func (pr *PinnedRead) Bytes() int { return len(pr.views) * block.Size }

// Release drops the pins. Frames evicted or replaced while pinned are
// recycled here, on the last unpin.
func (pr *PinnedRead) Release() {
	for i := 0; i < len(pr.views); {
		sh := pr.shards[i]
		if sh == nil {
			pr.tierPins[i].Release()
			i++
			continue
		}
		j := i
		sh.mu.Lock()
		for j < len(pr.views) && pr.shards[j] == sh {
			sh.unpinLocked(pr.views[j])
			j++
		}
		sh.mu.Unlock()
		i = j
	}
	pr.views = nil
	pr.shards = nil
	pr.tierPins = nil
}

// appendTier records a RAM-tier view, growing tierPins lazily so reads
// that never touch the tier keep the two-slice layout.
func (pr *PinnedRead) appendTier(view []byte, p tier.Pin) {
	if pr.tierPins == nil {
		pr.tierPins = make([]tier.Pin, len(pr.views))
	}
	pr.views = append(pr.views, view)
	pr.shards = append(pr.shards, nil)
	pr.tierPins = append(pr.tierPins, p)
}

// ReadPinned serves the longest all-hit prefix of the request
// [off, off+n) straight from the cache as pinned zero-copy frame views,
// or nil when nothing is pinnable (bad geometry or ids, degraded or
// closed store, or a miss on the very first block) — the caller then falls back
// to ReadAt for the whole request. RAM-tier-resident blocks are pinned
// under the tier's read lock only; the rest pin SSD shard frames under
// their shard mutex. On a partial prefix the caller writes the views
// first and issues a ReadAt for the remaining tail; hit/byte accounting
// and SieveStore-D access logging for the pinned blocks happen here, so
// the two halves together count exactly like one ReadAt. The whole-call
// latency histogram is observed only when the prefix covers the full
// request (a partial prefix's tail ReadAt records the op), keeping
// read-op counts at one per request.
func (s *Store) ReadPinned(server, volume, n int, off uint64) *PinnedRead {
	if checkIO(server, volume, off, n) != nil {
		return nil
	}
	var o op
	if err := s.begin(&o, opPin, server, volume, off, n); err != nil || o.bypass {
		return nil
	}
	pr := &PinnedRead{}
	var locked *shard
	for i := 0; i < o.n; i++ {
		key := o.key(i)
		if s.tier != nil {
			if view, p, ok := s.tier.Pin(key); ok {
				// Tier hit accounting lives in the tier's atomics (folded
				// into Stats); no shard is touched. Holding the previous
				// run's shard lock here is fine — the tier lock is a leaf
				// below every shard mutex.
				pr.appendTier(view, p)
				continue
			}
		}
		sh := s.shardOf(key)
		if locked != sh {
			if locked != nil {
				locked.mu.Unlock()
			}
			sh.mu.Lock()
			locked = sh
		}
		f := sh.hitLocked(key, nil)
		if f == nil {
			break
		}
		pr.views = append(pr.views, f)
		pr.shards = append(pr.shards, sh)
		if pr.tierPins != nil {
			pr.tierPins = append(pr.tierPins, tier.Pin{})
		}
	}
	if locked != nil {
		locked.mu.Unlock()
	}
	pinned := len(pr.views)
	if pinned == 0 {
		return nil
	}
	// Log and count exactly the blocks served here; the caller's tail
	// ReadAt logs and counts the rest itself. Every pinned block is a hit
	// for its tenant.
	s.logAccess(&o, pinned)
	s.tenantHits(server, volume, int64(pinned))
	if pinned == o.n {
		s.end(&o, nil)
	}
	return pr
}
