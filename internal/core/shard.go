package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/sieve"
	"repro/internal/tenant"
	"repro/internal/tier"
)

// framePool recycles 512-byte block buffers across shards so that frame
// installs and coalesced-waiter copies do not allocate per event. Frames
// evicted from a shard's cache go to that shard's free list first (they
// are hot in that shard); the pool backs first-fill and the transient
// copies handed to flight waiters.
var framePool = sync.Pool{
	New: func() any { return new([block.Size]byte) },
}

// frameGet returns a zero-copy 512-byte buffer from the pool.
func frameGet() []byte { return framePool.Get().(*[block.Size]byte)[:] }

// framePut recycles a buffer obtained from frameGet (or any 512-byte
// slice whose backing array may be pinned harmlessly).
func framePut(b []byte) {
	if len(b) < block.Size {
		return
	}
	framePool.Put((*[block.Size]byte)(b[:block.Size]))
}

// flight is one entry of a shard's in-flight table: a miss fetch or a
// write reservation in progress with the shard lock released. Readers that
// miss on a reserved key register as waiters and are served from the
// flight instead of issuing a duplicate backend fetch.
type flight struct {
	done chan struct{} // closed (under the shard lock) when the op completes
	// All remaining fields are guarded by the shard lock until done is
	// closed; afterwards they are read-only (the channel close publishes
	// them), except refs, which waiters decrement as they copy out.
	data    []byte // the block's bytes; set at completion iff waiters > 0
	err     error  // fetch/write failure, propagated to waiters
	waiters int
	// stale marks keys invalidated or batch-replaced while the flight was
	// in the air: the owner must not install its (now outdated) view into
	// the cache. The entry is detached from the table when marked, so new
	// misses start a fresh fetch.
	stale bool
	// isWrite distinguishes write reservations (and staged write-backs)
	// from miss fetches. Bulk replacements (epoch swap, snapshot load)
	// stale only fetches: a fetch holds pre-replacement data, but a write
	// completing afterwards carries *newer* data and must still fold it in.
	isWrite bool
	// pooled marks data as drawn from framePool; the last waiter to copy
	// out (refs reaching zero) returns it.
	pooled bool
	refs   atomic.Int32
}

// publishLocked stages the flight's payload for its registered waiters,
// drawing the copy from the frame pool instead of allocating. Must be
// called under the shard lock, before close(done). The buffer is
// refcounted by the waiter count; the last waiter returns it to the pool.
func (f *flight) publishLocked(src []byte) {
	if f.waiters > 0 {
		buf := frameGet()
		copy(buf, src)
		f.adoptLocked(buf)
	}
}

// adoptLocked is publishLocked for a buffer that is already a pool-origin
// copy (staged flushes copy the frame anyway for the backend write). It
// reports whether the waiters took ownership; if not, the caller still
// owns the buffer and should recycle it.
func (f *flight) adoptLocked(buf []byte) bool {
	if f.waiters == 0 {
		return false
	}
	f.data = buf
	f.pooled = true
	f.refs.Store(int32(f.waiters))
	return true
}

// release is called by each waiter after copying the payload out; the
// last one returns the pooled buffer.
func (f *flight) release() {
	if f.pooled && f.refs.Add(-1) == 0 {
		framePut(f.data)
	}
}

// shard is one lock-striped partition of the Store: a fully-associative
// tag store (LRU by default; any cache.Policy via Options.Policy) over
// its slice of the key space, with its own frames, dirty set, in-flight
// table, sieve state, and stats. Keys map to shards by hash
// (Store.shardOf); with Options.Shards == 1 the single shard is exactly
// the paper's fully-associative cache.
type shard struct {
	store *Store
	idx   int

	mu       sync.Mutex
	tags     cache.Policy
	frames   map[block.Key][]byte
	dirty    map[block.Key]bool
	free     [][]byte
	inflight map[block.Key]*flight
	sieveC   *sieve.C
	// rotSkip is non-nil while a store-wide epoch transition is staging
	// (it doubles as the per-shard "rotating" flag): keys written or
	// invalidated during the transition are recorded so the commit cannot
	// install its (older) fetched copy of them. The shard's commit
	// consumes and clears it.
	rotSkip map[block.Key]bool
	// pins tracks frames lent out to zero-copy readers (Store.ReadPinned),
	// keyed by the frame's backing array. A pinned frame is never mutated
	// or recycled: eviction/replacement dooms it instead, and the last
	// unpin returns it to the free list.
	pins map[*byte]*framePin
	// promo is this shard's RAM-tier promotion sieve (nil when the tier
	// is disabled), bumped on SSD read hits under the shard lock.
	promo *tier.PromoFilter
	stats Stats

	// _pad keeps adjacent shard allocations from false-sharing a cache
	// line when the allocator packs them.
	_pad [64]byte //nolint:unused
}

// framePin is the refcount for one frame lent out by Store.ReadPinned.
// Guarded by the owning shard's mutex.
type framePin struct {
	refs   int
	doomed bool // evicted or replaced while pinned: recycle on last unpin
}

// pinLocked takes a reference on a resident frame for a zero-copy reader.
func (sh *shard) pinLocked(f []byte) {
	if sh.pins == nil {
		sh.pins = make(map[*byte]*framePin)
	}
	p := sh.pins[&f[0]]
	if p == nil {
		p = &framePin{}
		sh.pins[&f[0]] = p
	}
	p.refs++
}

// unpinLocked drops a reference; the last unpin of a doomed frame returns
// it to the free list.
func (sh *shard) unpinLocked(f []byte) {
	k := &f[0]
	p := sh.pins[k]
	if p == nil {
		return
	}
	if p.refs--; p.refs > 0 {
		return
	}
	delete(sh.pins, k)
	if p.doomed {
		sh.free = append(sh.free, f)
	}
}

// recycleLocked returns a frame the cache no longer references to the
// shard's free list — unless a zero-copy reader still holds it pinned, in
// which case the frame is doomed and recycled on the last unpin instead.
// Every eviction/replacement path must route frames through here:
// appending to sh.free directly could hand a pinned frame to a writer
// while its bytes are still on their way to a wire.
func (sh *shard) recycleLocked(f []byte) {
	if f == nil {
		return
	}
	if p, ok := sh.pins[&f[0]]; ok {
		p.doomed = true
		return
	}
	sh.free = append(sh.free, f)
}

// writeFrameLocked folds data into key's resident frame. A pinned frame
// is never mutated in place (its bytes are owned by in-flight zero-copy
// responses): the update goes into a fresh frame swapped into the map,
// and the pinned original is doomed.
func (sh *shard) writeFrameLocked(key block.Key, data []byte) {
	f := sh.frames[key]
	if p, ok := sh.pins[&f[0]]; ok {
		p.doomed = true
		nf := sh.alloc()
		copy(nf, data)
		sh.frames[key] = nf
		return
	}
	copy(f, data)
}

// promoteOnHitLocked offers one SSD read hit to the RAM tier's promotion
// sieve and, once the block has earned it, copies its frame up into the
// tier. Called under sh.mu, which linearizes the copy with frame
// updates: a concurrent write cannot strand a stale copy in the tier,
// because its own tier invalidation runs under this same lock after the
// frame update.
func (sh *shard) promoteOnHitLocked(key block.Key) {
	if sh.promo != nil && sh.promo.Hit(key) {
		sh.store.tier.Insert(key, sh.frames[key])
	}
}

// hitLocked is the shard-hit stage, under sh.mu: a resident key is
// touched, its frame copied into dst — or, with dst nil, pinned for a
// zero-copy reader — the hit counted, and the block offered to the RAM
// tier's promotion sieve. It returns the frame, or nil on a miss.
func (sh *shard) hitLocked(key block.Key, dst []byte) []byte {
	if !sh.tags.Touch(key) {
		return nil
	}
	f := sh.frames[key]
	if dst != nil {
		copy(dst, f)
	} else {
		sh.pinLocked(f)
		sh.stats.PinnedReads++
	}
	sh.stats.Reads++
	sh.stats.ReadHits++
	sh.stats.CacheBytesServed += block.Size
	sh.promoteOnHitLocked(key)
	return f
}

// writeTally counts a write's cache hits and admissions.
type writeTally struct{ hits, admitted int }

// absorbLocked is the write-absorb stage for block i of o, under sh.mu:
// the write supersedes any RAM-tier copy, then — unless the block's
// reservation f went stale (invalidated mid-write) or the store closed
// (Close may already have drained this shard) — a resident frame takes
// data, marked dirty in write-back mode, or the sieve may admit it. It
// reports whether the cache absorbed the block.
func (sh *shard) absorbLocked(o *op, i int, data []byte, f *flight, t *writeTally) bool {
	key := o.key(i)
	// The tier can outlive SSD residency, so its copy goes whether the
	// write lands in the cache or in the backend. Under this shard's lock,
	// so no reader can re-promote the old frame in between.
	sh.store.tierInvalidate(key)
	if f.stale || sh.store.closed.Load() {
		return false
	}
	if sh.tags.Touch(key) {
		sh.writeFrameLocked(key, data)
		if sh.store.opts.WriteBack {
			sh.dirty[key] = true
		}
		sh.stats.WriteHits++
		t.hits++
		return true
	}
	if sh.tryAdmit(key, data, block.Write, o.now, sh.store.opts.WriteBack) {
		t.admitted++
		return true
	}
	return false
}

// dropLocked is the key-drop stage, under sh.mu. It drops key's RAM-tier
// copy (the tier can outlive SSD residency); marks a flight in the air
// stale and detaches it, so its owner skips installing pre-drop data and
// later misses fetch fresh; records the key in rotSkip, so a staging epoch
// commit cannot resurrect its older batch-fetched copy; and removes the
// resident frame, writing a dirty one back first when flush is set. It
// reports whether the block was resident.
func (sh *shard) dropLocked(key block.Key, flush bool) (bool, error) {
	sh.store.tierInvalidate(key)
	if f, ok := sh.inflight[key]; ok {
		f.stale = true
		delete(sh.inflight, key)
	}
	if sh.rotSkip != nil {
		sh.rotSkip[key] = true
	}
	if !sh.tags.Contains(key) {
		return false, nil
	}
	if flush && sh.dirty[key] {
		if err := sh.flushBlock(key); err != nil {
			return false, err
		}
	}
	delete(sh.dirty, key)
	sh.tags.Remove(key)
	sh.recycleLocked(sh.frames[key])
	delete(sh.frames, key)
	sh.tenantEvict(key)
	return true, nil
}

// finishFetchLocked completes an owned miss fetch of key under sh.mu: on
// success the block is offered to the sieve at now — unless the flight
// went stale or the store closed meanwhile — and published to coalesced
// waiters; on failure they get err. It reports whether the block was
// admitted.
func (sh *shard) finishFetchLocked(key block.Key, f *flight, data []byte, err error, now time.Time) (admitted bool) {
	if err == nil {
		admitted = !f.stale && !sh.store.closed.Load() && sh.tryAdmit(key, data, block.Read, now, false)
		f.publishLocked(data)
	} else {
		f.err = err
	}
	sh.endFlightLocked(key, f)
	return admitted
}

// endFlightLocked detaches f from the in-flight table, unless a drop or
// bulk replacement already did, and wakes its waiters.
func (sh *shard) endFlightLocked(key block.Key, f *flight) {
	if sh.inflight[key] == f {
		delete(sh.inflight, key)
	}
	close(f.done)
}

// tierInvalidate drops key's RAM-tier copy, if any. Callers must hold
// key's store-shard mutex so the drop linearizes with the frame or
// backend update it accompanies (see promoteOnHitLocked).
func (s *Store) tierInvalidate(key block.Key) {
	if s.tier != nil {
		s.tier.Invalidate(key)
	}
}

// alloc hands out a frame, preferring the shard's free list (frames
// evicted from this shard) over the global pool.
func (sh *shard) alloc() []byte {
	if n := len(sh.free); n > 0 {
		f := sh.free[n-1]
		sh.free = sh.free[:n-1]
		return f
	}
	return frameGet()
}

// tryAdmit consults the sieve (VariantC) at the op time now and installs
// the block on approval — marked dirty if asked — reporting whether it was
// admitted. VariantD never admits continuously.
func (sh *shard) tryAdmit(key block.Key, data []byte, kind block.Kind, now time.Time, dirty bool) bool {
	if sh.sieveC == nil {
		return false
	}
	// Tenant QoS raises the tenant's effective sieve threshold: by the
	// soft-throttle penalty when its endurance bucket runs low, and to an
	// unreachable level while it is at/over quota or out of endurance
	// budget. The sieve still counts the miss either way, so a penalized
	// tenant's hot blocks admit the moment the penalty lifts.
	extra := 0
	if a := sh.store.acct; a != nil {
		extra, _ = a.Admission(tenant.IDOf(key), now)
	}
	acc := block.Access{Time: now.Sub(sh.store.sieveBase).Nanoseconds(), Key: key, Kind: kind}
	if !sh.sieveC.ShouldAllocateN(acc, extra) {
		return false
	}
	if !sh.install(key, data) {
		return false
	}
	if dirty {
		sh.dirty[key] = true
	}
	sh.stats.AllocWrites++
	sh.tenantAllocWrite(key, 1, now)
	return true
}

// install copies data into a frame for key, evicting (and, in write-back
// mode, flushing) the LRU block if full. It reports whether the block was
// installed: when the dirty victim's write-back fails, the victim stays
// resident and dirty (its frame holds the only current copy), the failure
// is counted in Stats.FlushErrors, and the new block is simply not
// allocated — the caller's own I/O already succeeded and must not be
// failed by an unrelated block's flush.
func (sh *shard) install(key block.Key, data []byte) bool {
	if inj := sh.store.opts.FrameFaultInjector; inj != nil {
		if err := inj(key); err != nil {
			sh.store.noteCacheFault()
			return false
		}
	}
	wasResident := sh.tags.Contains(key)
	if sh.tags.Len() >= sh.tags.Capacity() && !wasResident {
		if victim, ok := sh.tags.Victim(); ok && sh.dirty[victim] {
			if err := sh.flushBlock(victim); err != nil {
				sh.stats.FlushErrors++
				return false
			}
		}
	}
	if victim, evicted := sh.tags.Insert(key); evicted {
		sh.stats.Evictions++
		sh.recycleLocked(sh.frames[victim])
		delete(sh.frames, victim)
		sh.tenantEvict(victim)
	}
	frame := sh.alloc()
	copy(frame, data)
	sh.frames[key] = frame
	if !wasResident {
		// A duplicate insert is a touch (snapshot streams can repeat a
		// key): tenant occupancy moves only on a real residency change.
		sh.tenantInstall(key)
	}
	sh.store.noteCacheOK()
	return true
}

// flushBlock writes one dirty block back and clears its dirty bit.
func (sh *shard) flushBlock(key block.Key) error {
	frame, ok := sh.frames[key]
	if !ok {
		delete(sh.dirty, key)
		return nil
	}
	if err := sh.store.backend.WriteAt(key.Server(), key.Volume(), frame, key.Offset()); err != nil {
		return fmt.Errorf("core: write-back of %v: %w", key, err)
	}
	sh.stats.chargeBackend(true, 1, block.Size)
	sh.stats.FlushWrites++
	delete(sh.dirty, key)
	return nil
}

// staleFetchFlightsLocked detaches every in-flight *fetch* and marks it
// stale. Called by bulk cache replacements (epoch swap, snapshot load) so
// that fetches completing afterwards cannot install pre-replacement
// frames. Write reservations stay attached: a write completing after the
// replacement carries newer data than anything fetched or snapshotted and
// must still fold it into the cache.
func (sh *shard) staleFetchFlightsLocked() {
	for key, f := range sh.inflight {
		if f.isWrite {
			continue
		}
		f.stale = true
		delete(sh.inflight, key)
	}
}

// reserveLocked claims the given blocks of a write in this shard's
// in-flight table. Acquisition is all-or-nothing within the shard: if any
// key is already claimed (a miss fetch or another write), the shard lock
// is dropped and the caller waits for that flight with no reservations of
// its own held *in this shard*, then retries. Cross-shard writers and
// staged flushes both acquire shards in ascending index order, so waiting
// here while holding reservations only in lower-numbered shards cannot
// form a cycle. Caller must hold sh.mu; it may be released and
// re-acquired. The returned flights are indexed like idxs.
func (sh *shard) reserveLocked(server, volume int, first uint64, idxs []int) ([]*flight, error) {
	for {
		var conflict *flight
		for _, i := range idxs {
			if f, ok := sh.inflight[block.MakeKey(server, volume, first+uint64(i))]; ok {
				conflict = f
				break
			}
		}
		if conflict == nil {
			break
		}
		sh.mu.Unlock()
		<-conflict.done
		sh.mu.Lock()
		if sh.store.closed.Load() {
			return nil, ErrClosed
		}
	}
	flights := make([]*flight, len(idxs))
	for k, i := range idxs {
		f := &flight{done: make(chan struct{}), isWrite: true}
		sh.inflight[block.MakeKey(server, volume, first+uint64(i))] = f
		flights[k] = f
	}
	return flights, nil
}

// completeLocked publishes a write's outcome to any coalesced readers and
// releases this shard's reservations. flights is indexed by global block
// index; idxs selects this shard's blocks. p is the written payload (nil
// when the operation failed before producing data); err is propagated to
// waiters.
func (sh *shard) completeLocked(server, volume int, first uint64, idxs []int, flights []*flight, p []byte, err error) {
	for _, i := range idxs {
		f := flights[i]
		if f == nil {
			continue
		}
		key := block.MakeKey(server, volume, first+uint64(i))
		if err != nil {
			f.err = err
		} else {
			if p != nil {
				f.publishLocked(p[i*block.Size : (i+1)*block.Size])
			}
			// A write landing while an epoch transition is staging has
			// newer data than the transition's batch fetch: tell the swap
			// not to install its copy of this block.
			if sh.rotSkip != nil {
				sh.rotSkip[key] = true
			}
		}
		sh.endFlightLocked(key, f)
	}
}

// flushStagedLocked writes this shard's dirty blocks back to the ensemble
// without holding the shard lock across the backend I/O. only, if
// non-nil, filters which dirty blocks are flushed. Caller must hold
// sh.mu; the lock is released and re-acquired. Each victim is reserved as
// a write flight first (so concurrent writes to it wait and reads
// coalesce onto the cached data), its frame is copied, and the copies are
// streamed in contiguous runs with bounded parallelism. Blocks whose
// write failed stay dirty and are counted in Stats.FlushErrors; the first
// error is returned.
//
// Reservation proceeds in ascending key order while holding earlier
// reservations, and cross-shard callers visit shards in ascending index
// order: any two staged flushes therefore acquire in the same global
// (shard, key) order and cannot deadlock against each other; every other
// flight owner (read misses, write reservations) completes without
// waiting on later-ordered flights, so waiting here with reservations
// held is safe.
func (sh *shard) flushStagedLocked(only func(block.Key) bool) error {
	var victims []block.Key
	for k := range sh.dirty {
		if only == nil || only(k) {
			victims = append(victims, k)
		}
	}
	if len(victims) == 0 {
		return nil
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i] < victims[j] })

	flights := make([]*flight, len(victims))
	frames := make([][]byte, len(victims))
	for i := 0; i < len(victims); {
		k := victims[i]
		if f, ok := sh.inflight[k]; ok {
			sh.mu.Unlock()
			<-f.done
			sh.mu.Lock()
			continue // re-check this key
		}
		if !sh.dirty[k] || sh.frames[k] == nil {
			i++ // flushed or dropped while we waited
			continue
		}
		f := &flight{done: make(chan struct{}), isWrite: true}
		sh.inflight[k] = f
		flights[i] = f
		// Copy the frame (pooled): Invalidate can flush+recycle it while
		// we stream.
		frames[i] = frameGet()
		copy(frames[i], sh.frames[k])
		i++
	}

	runs := contiguousRuns(victims, func(i int) bool { return flights[i] != nil })
	runErr := make([]error, len(runs))
	ran := make([]bool, len(runs))

	sh.mu.Unlock()
	err := forEach(len(runs), func(ri int) error {
		r := runs[ri]
		ran[ri] = true
		n := r.hi - r.lo
		buf := frames[r.lo]
		if n > 1 {
			buf = make([]byte, n*block.Size)
			for i := 0; i < n; i++ {
				copy(buf[i*block.Size:], frames[r.lo+i])
			}
		}
		k0 := victims[r.lo]
		if e := sh.store.backend.WriteAt(k0.Server(), k0.Volume(), buf, k0.Offset()); e != nil {
			runErr[ri] = fmt.Errorf("core: write-back of %v: %w", k0, e)
			return runErr[ri]
		}
		return nil
	})
	sh.mu.Lock()

	for ri, r := range runs {
		if !ran[ri] {
			continue
		}
		if runErr[ri] == nil {
			sh.stats.chargeBackend(true, 1, int64(r.hi-r.lo)*block.Size)
		}
		for i := r.lo; i < r.hi; i++ {
			if runErr[ri] == nil {
				if sh.dirty[victims[i]] {
					delete(sh.dirty, victims[i])
					sh.stats.FlushWrites++
				}
			} else {
				sh.stats.FlushErrors++
			}
		}
	}
	for i, k := range victims {
		f := flights[i]
		if f == nil {
			continue
		}
		// The cache's copy is current regardless of the write-back
		// outcome: serve coalesced readers from it, never an error. The
		// waiters take over the pooled copy; otherwise recycle it.
		if !f.adoptLocked(frames[i]) {
			framePut(frames[i])
		}
		sh.endFlightLocked(k, f)
	}
	return err
}

// drainDirtyLocked flushes until no dirty blocks remain in this shard: a
// few staged passes (writes may re-dirty blocks while the lock is down),
// then a final serial pass under the lock — which cannot be raced — for
// any stragglers.
func (sh *shard) drainDirtyLocked() error {
	for pass := 0; pass < 4 && len(sh.dirty) > 0; pass++ {
		if err := sh.flushStagedLocked(nil); err != nil {
			return err
		}
	}
	for key := range sh.dirty {
		if err := sh.flushBlock(key); err != nil {
			return err
		}
	}
	return nil
}

// commitEpochLocked applies a SieveStore-D epoch swap to this shard:
// selected is the shard's slice of the new epoch's set, hottest-first;
// fetched holds freshly-read frames for the previously non-resident keys.
// Caller must hold sh.mu; no backend I/O happens here.
func (sh *shard) commitEpochLocked(selected []block.Key, fetched map[block.Key][]byte) {
	// Fetches still in the air predate the new epoch and must not
	// install; write reservations stay attached (their data is newer than
	// the batch fetch).
	sh.staleFetchFlightsLocked()
	// A write reservation still pending at commit may already have sent
	// its data to the backend — after the batch fetch read the old
	// contents — without yet re-acquiring the shard lock to mark rotSkip
	// itself. Write-back through-writes never fold their data into the
	// cache afterwards, so installing the fetched copy would serve stale
	// data until the next epoch: treat the key as skipped now.
	for k, f := range sh.inflight {
		if f.isWrite {
			sh.rotSkip[k] = true
		}
	}
	// Blocks still dirty at commit (re-dirtied while no lock was held)
	// can never be evicted unflushed: retain them into the new epoch,
	// giving up the cold tail of the selection if capacity demands it.
	var forced []block.Key
	for k := range sh.dirty {
		forced = append(forced, k)
	}
	sort.Slice(forced, func(i, j int) bool { return forced[i] < forced[j] })
	final := make([]block.Key, 0, len(selected)+len(forced))
	inFinal := make(map[block.Key]bool, cap(final))
	for _, k := range forced {
		final = append(final, k)
		inFinal[k] = true
	}
	for _, k := range selected {
		if inFinal[k] {
			continue
		}
		if len(final) >= sh.tags.Capacity() {
			// Dirty retentions displaced this selected block: a hot block
			// lost to capacity, not a freshness skip — count it.
			sh.stats.SelectOverflow++
			continue
		}
		if sh.frames[k] == nil && (fetched[k] == nil || sh.rotSkip[k]) {
			// Not resident and nothing trustworthy fetched (written or
			// invalidated during the transition): leave it out; a later
			// epoch can re-select it.
			continue
		}
		final = append(final, k)
		inFinal[k] = true
	}
	_, evicted, overflow := sh.tags.Swap(final)
	sh.stats.SelectOverflow += int64(overflow)
	for _, k := range evicted {
		sh.recycleLocked(sh.frames[k])
		delete(sh.frames, k)
		sh.stats.Evictions++
		sh.tenantEvict(k)
	}
	for _, k := range final {
		if sh.frames[k] == nil {
			sh.frames[k] = fetched[k]
			sh.stats.EpochMoves++
			// Epoch batch installs are real SSD allocation-writes: move
			// tenant occupancy and charge the endurance budget.
			sh.tenantInstall(k)
			sh.tenantAllocWrite(k, 1, sh.store.now())
		}
	}
	// This shard's transition is committed; writes no longer need to
	// record skips.
	sh.rotSkip = nil
}
