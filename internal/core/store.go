// Package core is the SieveStore library proper: a highly-selective,
// ensemble-level block cache layered over any storage backend.
//
// A Store intercepts block I/O destined for a multi-server storage ensemble
// (the Backend) and serves the popular blocks from a small cache — the
// paper's SSD — admitting blocks only through a sieve so that the mass of
// low-reuse blocks costs neither allocation-writes nor pollution:
//
//	be := store.NewMem()                       // or any Backend
//	st, _ := core.Open(be, core.Options{})     // SieveStore-C, 16 GB cache
//	st.WriteAt(0, 0, data, 0)                  // write-through
//	st.ReadAt(0, 0, buf, 0)                    // hits served from cache
//
// Both paper variants are available: the continuous sieve (SieveStore-C,
// default) admits a block on its n-th recent miss; the discrete variant
// (SieveStore-D) logs accesses and batch-allocates the blocks whose epoch
// access count crosses a threshold, via the offline per-key-reduction
// pipeline in internal/sieved.
package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/sieve"
	"repro/internal/sieved"
	"repro/internal/tenant"
	"repro/internal/tier"
)

// Backend is the underlying storage ensemble. It matches
// internal/store.Backend; any implementation may be supplied.
type Backend interface {
	ReadAt(server, volume int, p []byte, off uint64) error
	WriteAt(server, volume int, p []byte, off uint64) error
}

// Variant selects the sieving mechanism.
type Variant int

const (
	// VariantC is SieveStore-C: online, hysteresis-based lazy allocation
	// through the two-tier IMCT/MCT sieve (§3.3).
	VariantC Variant = iota
	// VariantD is SieveStore-D: offline access counting with epoch batch
	// allocation (§3.2).
	VariantD
)

// String names the variant.
func (v Variant) String() string {
	if v == VariantD {
		return "SieveStore-D"
	}
	return "SieveStore-C"
}

// Options configures a Store.
type Options struct {
	// CacheBytes is the cache capacity (default 16 GiB; must be a multiple
	// of the 512-byte block size).
	CacheBytes int64
	// Shards splits the store into this many key-hash shards, each with its
	// own lock, tag store, frames, and sieve state, so the hit path scales
	// with cores. Must be a power of two; 0 or 1 (the default) keeps the
	// single fully-associative cache of the paper. Capacity is partitioned
	// evenly across shards, so with Shards > 1 eviction is shard-local —
	// hit ratios can differ marginally from the global-LRU figure.
	Shards int
	// Policy selects the cache's replacement engine: "lru" (default, the
	// paper's policy), "sieve", "s3fifo", "fifo", or "clock"
	// (case-insensitive; see cache.PolicyNames). SIEVE and S3-FIFO trade
	// LRU's per-hit list surgery for a single bit/counter update under the
	// shard lock — measurably cheaper hits at an equal (±1%) hit ratio on
	// the golden Zipf workload, since the sieve already admits only hot
	// blocks.
	Policy string
	// Variant selects SieveStore-C (default) or SieveStore-D.
	Variant Variant
	// SieveC configures the continuous sieve (VariantC). With Shards > 1
	// each shard runs its own sieve over IMCTSize/Shards slots so total
	// metastate is unchanged.
	SieveC sieve.CConfig
	// DThreshold is the epoch access-count threshold (VariantD; default 10).
	DThreshold int64
	// Epoch is the discrete allocation epoch (VariantD; default 24 h).
	Epoch time.Duration
	// SpillDir hosts SieveStore-D's partitioned access logs. Empty means a
	// temporary directory owned (and removed) by the Store.
	SpillDir string
	// WriteBack enables write-back caching: writes to cached blocks stay
	// in the cache (marked dirty) and reach the ensemble only on eviction,
	// Flush, or Close. The default is write-through (the backend is always
	// authoritative), which is what the paper's appliance model implies.
	WriteBack bool
	// TrackLatency records whole-call ReadAt/WriteAt service times into
	// Stats.ReadLatency/WriteLatency and the latency histograms returned
	// by LatencyHistograms (a few atomic ops per call, allocation-free;
	// off by default so trace replay stays allocation- and
	// syscall-identical).
	TrackLatency bool
	// TraceSample enables sampled operation tracing: one in every
	// TraceSample ReadAt/WriteAt calls records an OpTrace lifecycle record
	// (arrival, shard, hit/miss/coalesce/admission counts, degraded-path
	// flags, whole-call latency) into a fixed-size ring readable via
	// Traces. 0 disables tracing; 1 traces every operation. The unsampled
	// hot path costs one atomic add.
	TraceSample int
	// TraceRingSize is how many sampled trace records the ring retains
	// (default 256).
	TraceRingSize int
	// DegradedFaultThreshold is how many consecutive cache-device faults
	// (frame-write failures, see FrameFaultInjector) flip the store into
	// pass-through bypass: reads and writes go straight to the backend —
	// a sick cache device must not take the whole ensemble path down with
	// it — until a recovery probe succeeds. The same threshold disables
	// SieveStore-D access logging after that many consecutive spill
	// errors. 0 means the default (3); negative disables degraded modes.
	DegradedFaultThreshold int
	// DegradedProbeEvery is how often one request is allowed through the
	// normal cached path (or one access through the disabled spill
	// logger) to probe for recovery while degraded (default 1 s).
	DegradedProbeEvery time.Duration
	// FrameFaultInjector, if non-nil, is consulted before every cache
	// frame install and models the cache device failing a write: a
	// non-nil error aborts the admission (the request itself still
	// succeeds — the data was already fetched or written through) and
	// counts a cache-device fault toward DegradedFaultThreshold. This is
	// the seam where an SSD-backed frame store would surface its write
	// errors; the fault-injection tests drive it directly. Epoch batch
	// installs (VariantD commit) bypass the seam.
	FrameFaultInjector func(key block.Key) error
	// GroupCommitWindow coalesces concurrent Flush calls (write-back mode):
	// the first flusher waits this long before starting the staged
	// write-back pass, and every Flush arriving inside the window rides on
	// that one pass instead of starting its own. 0 (the default) keeps the
	// historical immediate-flush behavior. The appliance enables it via
	// -group-commit-window so pipelined OpFlush frames from many clients
	// collapse into one backend sweep.
	GroupCommitWindow time.Duration
	// Now supplies time; nil means time.Now. Injectable for tests and
	// trace replay.
	Now func() time.Time
	// Sleep supplies the group-commit flush window's wait; nil means
	// time.Sleep. Injectable (alongside Now) so flush-window tests run
	// deterministically without real sleeps.
	Sleep func(time.Duration)
	// RAMTierBytes sizes the in-process RAM tier above the SSD cache
	// (internal/tier): blocks that keep hitting in the SSD tier are
	// promoted into RAM and served without touching the shard mutex's
	// frame bookkeeping. 0 (the default) disables the tier and leaves
	// every code path bit-identical to a tierless store. Must be a
	// multiple of the block size and at least one block per shard.
	RAMTierBytes int64
	// TierPromoteHits is how many repeated SSD-tier read hits promote a
	// block into the RAM tier (via a small per-shard promotion sieve;
	// default 2).
	TierPromoteHits int
	// TierAutotune lets the tier advisor resize the RAM tier at VariantD
	// epoch boundaries, within [TierMinBytes, TierMaxBytes]. Requires
	// RAMTierBytes > 0 and VariantD (the advisor replays the epoch
	// logger's access counts; VariantC has no epochs to replay).
	TierAutotune bool
	// TierMinBytes/TierMaxBytes bound the advisor's candidate sweep and
	// autotune resizes. Defaults: RAMTierBytes/4 (at least one block per
	// shard) and 4×RAMTierBytes capped at CacheBytes.
	TierMinBytes int64
	TierMaxBytes int64
	// TenantTracking enables per-tenant accounting (occupancy, hit
	// ratios, allocation-writes) keyed by the (server, volume) identity
	// every request carries, surfaced via TenantStats. Implied by
	// TenantQuotas and EnduranceBytesPerDay; on its own it only observes.
	// Off (the default), every path is byte-identical to a tenant-blind
	// store.
	TenantTracking bool
	// TenantQuotas enforces per-tenant soft capacity quotas: a tenant
	// at/over its quota is denied sieve admission (its misses still feed
	// the sieve's counters) and its share of a VariantD epoch selection
	// is clipped. Quotas repartition by realized per-tenant reuse — each
	// interval's hits earn the matching share of capacity above a small
	// guaranteed floor — every TenantRepartitionEvery and at VariantD
	// epoch boundaries. See internal/tenant.
	TenantQuotas bool
	// EnduranceBytesPerDay is the SSD endurance envelope: each tenant's
	// allocation-writes drain a token bucket refilling at the tenant's
	// capacity share of this daily rate. Running low raises the tenant's
	// sieve threshold; an empty bucket denies admission until it refills.
	// 0 (the default) disables the endurance budget.
	EnduranceBytesPerDay int64
	// TenantRepartitionEvery is the time-driven quota repartition
	// interval (default 1 minute). Negative disables the timer, leaving
	// only VariantD epoch-boundary repartitions.
	TenantRepartitionEvery time.Duration
}

// DefaultShards returns the appliance's default shard count: GOMAXPROCS
// rounded up to a power of two (capped at 256).
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	s := 1
	for s < n && s < 256 {
		s <<= 1
	}
	return s
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.CacheBytes == 0 {
		out.CacheBytes = 16 << 30
	}
	if out.CacheBytes < block.Size || out.CacheBytes%block.Size != 0 {
		return out, fmt.Errorf("core: CacheBytes %d must be a positive multiple of %d", out.CacheBytes, block.Size)
	}
	if out.Shards == 0 {
		out.Shards = 1
	}
	if out.Shards < 1 || out.Shards&(out.Shards-1) != 0 {
		return out, fmt.Errorf("core: Shards %d must be a power of two", out.Shards)
	}
	if int64(out.Shards) > out.CacheBytes/block.Size {
		return out, fmt.Errorf("core: Shards %d exceeds the cache's %d blocks", out.Shards, out.CacheBytes/block.Size)
	}
	if _, err := cache.NewPolicy(out.Policy, 1); err != nil {
		return out, err
	}
	if out.SieveC.IMCTSize == 0 {
		out.SieveC = sieve.DefaultCConfig()
	}
	if out.DThreshold == 0 {
		out.DThreshold = sieved.DefaultThreshold
	}
	if out.DThreshold < 1 {
		return out, fmt.Errorf("core: DThreshold must be ≥1, got %d", out.DThreshold)
	}
	if out.Epoch == 0 {
		out.Epoch = 24 * time.Hour
	}
	if out.Epoch < time.Minute {
		return out, fmt.Errorf("core: Epoch %v too short", out.Epoch)
	}
	if out.TraceSample < 0 {
		return out, fmt.Errorf("core: TraceSample must be ≥0, got %d", out.TraceSample)
	}
	if out.TraceRingSize == 0 {
		out.TraceRingSize = 256
	}
	if out.TraceRingSize < 1 {
		return out, fmt.Errorf("core: TraceRingSize must be ≥1, got %d", out.TraceRingSize)
	}
	if out.DegradedFaultThreshold == 0 {
		out.DegradedFaultThreshold = 3
	}
	if out.DegradedProbeEvery == 0 {
		out.DegradedProbeEvery = time.Second
	}
	if out.DegradedProbeEvery < 0 {
		return out, fmt.Errorf("core: DegradedProbeEvery %v must be positive", out.DegradedProbeEvery)
	}
	if out.GroupCommitWindow < 0 {
		return out, fmt.Errorf("core: GroupCommitWindow %v must be ≥0", out.GroupCommitWindow)
	}
	if out.Now == nil {
		out.Now = time.Now
	}
	if out.Sleep == nil {
		out.Sleep = time.Sleep
	}
	if out.RAMTierBytes < 0 || out.RAMTierBytes%block.Size != 0 {
		return out, fmt.Errorf("core: RAMTierBytes %d must be a non-negative multiple of %d", out.RAMTierBytes, block.Size)
	}
	if out.RAMTierBytes > 0 && out.RAMTierBytes < int64(out.Shards)*block.Size {
		return out, fmt.Errorf("core: RAMTierBytes %d below one block per shard (%d shards)", out.RAMTierBytes, out.Shards)
	}
	if out.TierPromoteHits == 0 {
		out.TierPromoteHits = tier.DefaultPromoteHits
	}
	if out.TierPromoteHits < 1 {
		return out, fmt.Errorf("core: TierPromoteHits must be ≥1, got %d", out.TierPromoteHits)
	}
	if out.RAMTierBytes > 0 {
		if out.TierMinBytes == 0 {
			out.TierMinBytes = out.RAMTierBytes / 4
		}
		if min := int64(out.Shards) * block.Size; out.TierMinBytes < min {
			out.TierMinBytes = min
		}
		out.TierMinBytes -= out.TierMinBytes % block.Size
		if out.TierMaxBytes == 0 {
			out.TierMaxBytes = 4 * out.RAMTierBytes
			if out.TierMaxBytes > out.CacheBytes {
				out.TierMaxBytes = out.CacheBytes
			}
		}
		out.TierMaxBytes -= out.TierMaxBytes % block.Size
		if out.TierMinBytes > out.TierMaxBytes {
			return out, fmt.Errorf("core: TierMinBytes %d exceeds TierMaxBytes %d", out.TierMinBytes, out.TierMaxBytes)
		}
		if out.RAMTierBytes < out.TierMinBytes || out.RAMTierBytes > out.TierMaxBytes {
			return out, fmt.Errorf("core: RAMTierBytes %d outside [TierMinBytes %d, TierMaxBytes %d]", out.RAMTierBytes, out.TierMinBytes, out.TierMaxBytes)
		}
	}
	if out.TierAutotune {
		if out.RAMTierBytes == 0 {
			return out, errors.New("core: TierAutotune requires RAMTierBytes > 0")
		}
		if out.Variant != VariantD {
			return out, errors.New("core: TierAutotune requires VariantD (the advisor replays epoch access counts)")
		}
	}
	if out.EnduranceBytesPerDay < 0 {
		return out, fmt.Errorf("core: EnduranceBytesPerDay must be ≥0, got %d", out.EnduranceBytesPerDay)
	}
	if out.TenantQuotas || out.EnduranceBytesPerDay > 0 {
		out.TenantTracking = true
	}
	if out.TenantRepartitionEvery == 0 {
		out.TenantRepartitionEvery = time.Minute
	}
	return out, nil
}

// Stats counts the Store's activity. Blocks are 512-byte units.
type Stats struct {
	Reads, Writes          int64 // block accesses by kind
	ReadHits, WriteHits    int64 // blocks served/updated in cache
	AllocWrites            int64 // blocks written into the cache on admission
	Evictions              int64 // blocks evicted
	EpochMoves             int64 // blocks batch-moved at epoch boundaries (VariantD)
	Epochs                 int64 // completed epoch rotations (VariantD)
	BackendReads           int64 // read requests issued to the ensemble
	BackendWrites          int64 // write requests issued to the ensemble
	CachedBlocks           int64 // current residency
	CapacityBlocks         int64
	SieveTrackedBlocks     int64 // precise sieve metastate entries (VariantC)
	DirtyBlocks            int64 // write-back blocks awaiting flush
	FlushWrites            int64 // dirty blocks written back to the ensemble
	BackendBytesRead       int64
	BackendBytesWritten    int64
	CacheBytesServed       int64 // bytes of reads served from cache
	BackendBytesServedRead int64
	CoalescedReads         int64 // miss blocks served by joining another caller's in-flight fetch
	RotateFailures         int64 // epoch rotations aborted before the swap by a backend or log error (VariantD)
	ResetFailures          int64 // epoch log resets that failed after the swap committed — the rotation still counts in Epochs (VariantD)
	FlushErrors            int64 // dirty write-backs that failed (the blocks stay dirty and resident)
	BypassReads            int64 // blocks read straight from the backend while degraded
	BypassWrites           int64 // blocks written straight to the backend while degraded
	DegradedEnters         int64 // transitions into cache-bypass mode
	DegradedExits          int64 // recoveries out of cache-bypass mode
	CacheFaults            int64 // cache-device (frame-write) faults observed
	SpillDisables          int64 // times SieveStore-D access logging was disabled by spill faults
	SelectOverflow         int64 // hottest-first selected blocks dropped for capacity at epoch swaps (skewed key→shard splits, dirty retentions displacing the selection, tag-store truncation) — VariantD
	PinnedReads            int64 // blocks served zero-copy via ReadPinned (a subset of ReadHits)
	GroupCommits           int64 // staged flush passes started by Flush with group commit enabled
	CoalescedFlushes       int64 // Flush calls that rode on another caller's group-committed pass
	PinnedFrames           int64 // frames currently lent out to zero-copy readers (SSD + RAM tier)
	TierHits               int64 // blocks served from the RAM tier (a subset of ReadHits)
	TierPromotions         int64 // blocks promoted from the SSD tier into RAM
	TierDemotions          int64 // RAM-tier evictions back to SSD-resident-only
	TierInvalidations      int64 // RAM-tier drops because the data changed below
	TierCachedBlocks       int64 // current RAM-tier residency
	TierCapacityBlocks     int64 // current RAM-tier capacity (autotune moves it)
	TierResizes            int64 // RAM-tier capacity changes applied by autotune
	Tenants                int64 // distinct (server, volume) tenants seen (tenant tracking only)
	QuotaDenials           int64 // admissions denied because the tenant was at/over its soft quota
	ThrottleDenials        int64 // admissions denied by an empty tenant endurance bucket
	TenantClips            int64 // epoch-selected blocks clipped by tenant quota or endurance budget (VariantD)
	TenantRepartitions     int64 // quota repartitions run (time-driven and epoch-boundary)
	Degraded               bool  // whether the store is in cache-bypass mode right now

	// ReadLatency/WriteLatency aggregate whole-call ReadAt/WriteAt service
	// times when Options.TrackLatency is set (zero otherwise).
	ReadLatency  metrics.OpLatencySnapshot
	WriteLatency metrics.OpLatencySnapshot
}

// accumulate folds one shard's counters into the receiver.
func (s *Stats) accumulate(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadHits += o.ReadHits
	s.WriteHits += o.WriteHits
	s.AllocWrites += o.AllocWrites
	s.Evictions += o.Evictions
	s.EpochMoves += o.EpochMoves
	s.Epochs += o.Epochs
	s.BackendReads += o.BackendReads
	s.BackendWrites += o.BackendWrites
	s.CachedBlocks += o.CachedBlocks
	s.CapacityBlocks += o.CapacityBlocks
	s.SieveTrackedBlocks += o.SieveTrackedBlocks
	s.DirtyBlocks += o.DirtyBlocks
	s.FlushWrites += o.FlushWrites
	s.BackendBytesRead += o.BackendBytesRead
	s.BackendBytesWritten += o.BackendBytesWritten
	s.CacheBytesServed += o.CacheBytesServed
	s.BackendBytesServedRead += o.BackendBytesServedRead
	s.CoalescedReads += o.CoalescedReads
	s.RotateFailures += o.RotateFailures
	s.ResetFailures += o.ResetFailures
	s.FlushErrors += o.FlushErrors
	s.SelectOverflow += o.SelectOverflow
	s.PinnedReads += o.PinnedReads
	s.PinnedFrames += o.PinnedFrames
}

// Hits returns total block hits.
func (s Stats) Hits() int64 { return s.ReadHits + s.WriteHits }

// HitRatio returns the captured fraction of block accesses.
func (s Stats) HitRatio() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.Hits()) / float64(total)
}

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("core: store is closed")

// ErrAlignment rejects I/O that is not 512-byte aligned.
var ErrAlignment = errors.New("core: offset and length must be multiples of 512")

// ErrRange rejects I/O that a block.Key cannot address: a server or volume
// id outside [0, block.MaxServers) or [0, block.MaxVolumes), or an offset
// or extent beyond block.MaxBlockNumber blocks per volume.
var ErrRange = errors.New("core: request beyond addressable block range")

// Store is a SieveStore cache instance. It is safe for concurrent use.
//
// Concurrency model: the cache is split into Options.Shards key-hash
// shards, each guarded by its own mutex over that shard's tags, frames,
// dirty set, in-flight table, sieve state, and stats. No shard lock is
// ever held across hot-path backend I/O: a miss reserves its keys in the
// shard's in-flight table, releases the lock, fetches from the ensemble,
// then re-acquires it for sieve admission and frame installation.
// Duplicate concurrent misses for a key coalesce onto the first fetch
// (single-flight); writes reserve their key range — visiting shards in
// ascending index order, the global deadlock-avoidance rule — so
// backend-write order and cache-update order cannot invert. Cross-shard
// operations (epoch rotation, Flush, Close, snapshots) are staged per
// shard in the same ascending order. SieveStore-D access logging happens
// before any shard lock is taken.
type Store struct {
	backend Backend
	opts    Options

	shards    []*shard
	shardMask uint64
	logger    *sieved.Logger

	// tier is the in-process RAM tier above the SSD cache (nil unless
	// Options.RAMTierBytes > 0). Tier hits are served under the tier's
	// read lock only; tier membership changes (promotion, invalidation)
	// happen while the owning store shard's mutex is held, so they
	// linearize with frame updates. tierAdvice is the latest epoch's
	// advisor output (VariantD; nil before the first rotation).
	tier       *tier.Cache
	tierAdvice atomic.Pointer[tier.Advice]

	// acct is the multi-tenant QoS accountant (nil unless
	// Options.TenantTracking — see internal/tenant). It is a leaf in the
	// lock order: safe to call under any shard lock, never calls back.
	acct *tenant.Accountant

	closed atomic.Bool

	// rotMu guards the epoch schedule (start, curEpoch) and the rotating
	// flag; rotCond is broadcast when a transition ends. deadline caches
	// the next boundary as UnixNanos (MaxInt64 for VariantC) so the hot
	// path checks it with one atomic load, no lock.
	rotMu    sync.Mutex
	rotCond  *sync.Cond
	rotating bool
	start    time.Time
	curEpoch int64
	deadline atomic.Int64

	// sieveBase is the immutable Open time used for sieve access
	// timestamps. (start also begins there but is reset by RotateEpoch,
	// which must not rewind the sieve's windows.)
	sieveBase time.Time

	epochs         atomic.Int64
	rotateFailures atomic.Int64
	resetFailures  atomic.Int64

	// Degraded-mode state (see Options.DegradedFaultThreshold). degraded
	// flips on after DegradedFaultThreshold consecutive cache-device
	// faults; while set, requests bypass the cache (straight to the
	// backend) except one probe per DegradedProbeEvery that takes the
	// normal path — a probe completing without a new cache fault flips
	// degraded back off. spillDisabled is the analogous per-epoch switch
	// for SieveStore-D access logging.
	degraded         atomic.Bool
	cacheFaultStreak atomic.Int64 // consecutive frame faults; reset by any fault-free install
	cacheFaults      atomic.Int64 // total frame faults
	degradedEnters   atomic.Int64
	degradedExits    atomic.Int64
	bypassReads      atomic.Int64
	bypassWrites     atomic.Int64
	lastCacheProbe   atomic.Int64 // UnixNanos of the last bypass probe
	spillFaultStreak atomic.Int64
	spillDisabled    atomic.Bool
	spillDisables    atomic.Int64
	lastSpillProbe   atomic.Int64

	ownSpill string // temp dir to remove on Close, if any

	// monoBase anchors latency timestamps: time.Since(monoBase) reads only
	// the monotonic clock (one nanotime call), where time.Now() also reads
	// the wall clock — roughly 4x the cost on the VMs this runs on. Latency
	// tracking needs deltas, never wall time.
	monoBase time.Time

	// histRead/histWrite bucket whole-call service times into mergeable
	// log-linear histograms (TrackLatency only) and are the single source
	// of truth for latency accounting: Stats derives the flat
	// OpLatencySnapshot (ops/total/max) from the histogram so the hot path
	// pays one Observe, not two. Zero-value ready; Observe is
	// allocation-free. errRead/errWrite count failed calls separately —
	// the histogram buckets durations only.
	histRead  metrics.Histogram
	histWrite metrics.Histogram
	errRead   atomic.Int64
	errWrite  atomic.Int64

	// trace is the sampled op-lifecycle ring (nil unless TraceSample > 0).
	trace *metrics.TraceRing

	// Group-commit state (Options.GroupCommitWindow > 0): gcBatch is the
	// staged flush pass currently collecting joiners, if any. gcMu guards
	// it; the pass itself runs with gcMu released.
	gcMu             sync.Mutex
	gcBatch          *flushBatch
	groupCommits     atomic.Int64
	coalescedFlushes atomic.Int64
}

// flushBatch is one group-committed flush pass: every Flush arriving
// while it is open shares its outcome.
type flushBatch struct {
	done chan struct{}
	err  error
}

// Open validates opts and returns a ready Store over backend.
func Open(backend Backend, opts Options) (*Store, error) {
	if backend == nil {
		return nil, errors.New("core: nil backend")
	}
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	now := o.Now()
	s := &Store{
		backend:   backend,
		opts:      o,
		shardMask: uint64(o.Shards - 1),
		start:     now,
		sieveBase: now,
		monoBase:  time.Now(),
	}
	s.rotCond = sync.NewCond(&s.rotMu)
	s.deadline.Store(math.MaxInt64)
	if o.TraceSample > 0 {
		s.trace = metrics.NewTraceRing(o.TraceRingSize, o.TraceSample)
	}
	caps := cache.PartitionCapacity(int(o.CacheBytes/block.Size), o.Shards)
	s.shards = make([]*shard, o.Shards)
	for i := range s.shards {
		tags, err := cache.NewPolicy(o.Policy, caps[i])
		if err != nil {
			return nil, err
		}
		sh := &shard{
			store:    s,
			idx:      i,
			tags:     tags,
			frames:   make(map[block.Key][]byte),
			dirty:    make(map[block.Key]bool),
			inflight: make(map[block.Key]*flight),
		}
		sh.stats.CapacityBlocks = int64(caps[i])
		s.shards[i] = sh
	}
	if o.TenantTracking {
		acct, err := tenant.New(tenant.Config{
			CapacityBlocks:       o.CacheBytes / block.Size,
			BlockBytes:           block.Size,
			Quotas:               o.TenantQuotas,
			EnduranceBytesPerDay: o.EnduranceBytesPerDay,
			RepartitionEvery:     o.TenantRepartitionEvery,
		})
		if err != nil {
			return nil, err
		}
		s.acct = acct
	}
	if o.RAMTierBytes > 0 {
		// SIEVE is the tier's point: lookups touch one atomic bit, so the
		// RAM hit path never takes an exclusive lock.
		tc, err := tier.New(tier.Config{Bytes: o.RAMTierBytes, Shards: o.Shards, Policy: "sieve"})
		if err != nil {
			return nil, err
		}
		s.tier = tc
		for _, sh := range s.shards {
			// The promotion sieve lives in the store shard (bumped under its
			// existing lock), so tier admission adds no locking to SSD hits.
			sh.promo = tier.NewPromoFilter(0, o.TierPromoteHits)
		}
	}
	switch o.Variant {
	case VariantC:
		// Each shard sieves its own slice of the key space; splitting the
		// IMCT keeps total metastate (and the aliasing rate, since each
		// shard sees ~1/Shards of the keys) unchanged.
		cfg := o.SieveC
		if o.Shards > 1 {
			cfg.IMCTSize = (cfg.IMCTSize + o.Shards - 1) / o.Shards
		}
		for _, sh := range s.shards {
			sc, err := sieve.NewC(cfg)
			if err != nil {
				return nil, err
			}
			sh.sieveC = sc
		}
	case VariantD:
		dir := o.SpillDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "sievestore-spill-*")
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
			s.ownSpill = dir
		}
		// Keep the partition count a multiple of the shard count: both
		// hash with the same mix, so every partition then holds keys of
		// exactly one shard (partition p feeds shard p mod Shards) and
		// concurrent shards never contend on a partition lock.
		partitions := sieved.DefaultPartitions
		if o.Shards > partitions {
			partitions = o.Shards
		}
		var logger *sieved.Logger
		if o.SpillDir != "" {
			// A caller-supplied spill dir is durable state: resume (and
			// salvage) the epoch in progress instead of truncating it — a
			// daemon restart must not discard the day's access counts.
			logger, err = sieved.OpenLogger(dir, partitions)
		} else {
			logger, err = sieved.NewLogger(dir, partitions)
		}
		if err != nil {
			if s.ownSpill != "" {
				os.RemoveAll(s.ownSpill)
			}
			return nil, err
		}
		s.logger = logger
		s.updateDeadlineLocked()
	default:
		return nil, fmt.Errorf("core: unknown variant %d", o.Variant)
	}
	return s, nil
}

// Variant returns the store's sieving variant.
func (s *Store) Variant() Variant { return s.opts.Variant }

// Shards returns the store's shard count.
func (s *Store) Shards() int { return len(s.shards) }

// Policy returns the canonical name of the replacement engine the shards
// run ("LRU", "SIEVE", ...). Immutable after Open.
func (s *Store) Policy() string { return s.shards[0].tags.Name() }

// shardIndex maps a key to its shard with the same 64-bit avalanche mix
// the sieved logger hashes partitions with, so shard i's keys land in
// exactly the partitions ≡ i (mod Shards).
func (s *Store) shardIndex(key block.Key) int {
	if s.shardMask == 0 {
		return 0
	}
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x & s.shardMask)
}

func (s *Store) shardOf(key block.Key) *shard { return s.shards[s.shardIndex(key)] }

// Stats returns a snapshot of the store's counters, merged across shards.
// Each shard is snapshotted under its own lock; concurrent operations may
// land between shard snapshots, so cross-shard sums are momentary, not a
// single global instant (exact with Shards=1).
func (s *Store) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		sub := sh.stats
		sub.CachedBlocks = int64(sh.tags.Len())
		sub.DirtyBlocks = int64(len(sh.dirty))
		sub.PinnedFrames = int64(len(sh.pins))
		if sh.sieveC != nil {
			sub.SieveTrackedBlocks = int64(sh.sieveC.Stats().MCTSize)
		}
		sh.mu.Unlock()
		st.accumulate(sub)
	}
	if s.tier != nil {
		ts := s.tier.Stats()
		// Tier hits are real block reads served from cache — fold them
		// into the read/hit/byte totals (they bypassed the shards' own
		// accounting by design) and report the tier-specific counters
		// alongside. CachedBlocks stays SSD-only: the tier holds extra
		// copies, not extra residency.
		st.Reads += ts.Hits
		st.ReadHits += ts.Hits
		st.CacheBytesServed += ts.Hits * block.Size
		st.PinnedReads += ts.Pinned
		st.PinnedFrames += ts.PinnedFrames
		st.TierHits = ts.Hits
		st.TierPromotions = ts.Promotions
		st.TierDemotions = ts.Demotions
		st.TierInvalidations = ts.Invalidations
		st.TierCachedBlocks = ts.CachedBlocks
		st.TierCapacityBlocks = ts.CapacityBlocks
		st.TierResizes = ts.Resizes
	}
	if s.acct != nil {
		t := s.acct.Totals()
		st.Tenants = t.Tenants
		st.QuotaDenials = t.QuotaDenials
		st.ThrottleDenials = t.ThrottleDenials
		st.TenantClips = t.SelectionClips
		st.TenantRepartitions = t.Repartitions
	}
	st.Epochs = s.epochs.Load()
	st.RotateFailures = s.rotateFailures.Load()
	st.ResetFailures = s.resetFailures.Load()
	st.BypassReads = s.bypassReads.Load()
	st.BypassWrites = s.bypassWrites.Load()
	st.DegradedEnters = s.degradedEnters.Load()
	st.DegradedExits = s.degradedExits.Load()
	st.CacheFaults = s.cacheFaults.Load()
	st.SpillDisables = s.spillDisables.Load()
	st.GroupCommits = s.groupCommits.Load()
	st.CoalescedFlushes = s.coalescedFlushes.Load()
	st.Degraded = s.degraded.Load()
	st.ReadLatency = latencyFromHistogram(s.histRead.Snapshot(), s.errRead.Load())
	st.WriteLatency = latencyFromHistogram(s.histWrite.Snapshot(), s.errWrite.Load())
	return st
}

// latencyFromHistogram flattens a histogram snapshot into the wire-stable
// OpLatencySnapshot shape, folding in the separately tracked error count.
func latencyFromHistogram(h metrics.HistogramSnapshot, errs int64) metrics.OpLatencySnapshot {
	return metrics.OpLatencySnapshot{
		Ops:        h.Count,
		Errors:     errs,
		TotalNanos: h.Sum,
		MaxNanos:   h.Max,
	}
}

// Degraded reports whether the store is currently in cache-bypass mode.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// noteCacheFault records one cache-device fault; crossing the threshold
// enters bypass mode. Callable under a shard lock (atomics only).
func (s *Store) noteCacheFault() {
	s.cacheFaults.Add(1)
	streak := s.cacheFaultStreak.Add(1)
	thr := int64(s.opts.DegradedFaultThreshold)
	if thr > 0 && streak >= thr && s.degraded.CompareAndSwap(false, true) {
		s.degradedEnters.Add(1)
		// Wait one full probe interval before the first recovery probe.
		s.lastCacheProbe.Store(s.now().UnixNano())
	}
}

// noteCacheOK resets the consecutive-fault streak after a fault-free
// frame install.
func (s *Store) noteCacheOK() { s.cacheFaultStreak.Store(0) }

// exitDegraded leaves bypass mode after a successful recovery probe.
func (s *Store) exitDegraded() {
	if s.degraded.CompareAndSwap(true, false) {
		s.cacheFaultStreak.Store(0)
		s.degradedExits.Add(1)
	}
}

// probeDue claims the per-interval recovery probe slot tracked by last
// for an op at time now: true means this caller is the probe and last was
// advanced.
func (s *Store) probeDue(last *atomic.Int64, now time.Time) bool {
	ns := now.UnixNano()
	l := last.Load()
	return ns-l >= int64(s.opts.DegradedProbeEvery) && last.CompareAndSwap(l, ns)
}

// Close releases the store's resources. In write-back mode the dirty
// blocks are written back first (staged, without holding any shard lock
// across the backend I/O); write-through stores have nothing to flush.
func (s *Store) Close() error {
	s.rotMu.Lock()
	// Wait out an epoch transition in progress: it expects the logger and
	// spill directory to outlive it.
	for s.rotating {
		s.rotCond.Wait()
	}
	if s.closed.Load() {
		s.rotMu.Unlock()
		return nil
	}
	// Mark closed first so no new I/O can dirty blocks behind the drains.
	// An operation already past its entry check either sees closed under
	// its shard's lock (and writes through instead of dirtying) or holds
	// the shard lock before our drain does — in which case the drain
	// below sees its dirty blocks.
	s.closed.Store(true)
	s.rotMu.Unlock()

	err := s.eachShard((*shard).drainDirtyLocked)
	if s.logger != nil {
		if lerr := s.logger.Close(); err == nil {
			err = lerr
		}
	}
	if s.ownSpill != "" {
		if rmErr := os.RemoveAll(s.ownSpill); err == nil {
			err = rmErr
		}
	}
	return err
}

// checkIO validates a request's ids and geometry: the one entry check of
// ReadAt, WriteAt, ReadPinned and Invalidate. The id and block-range
// checks matter for requests arriving off the wire or from a trace file:
// block.MakeKey treats an out-of-range component as a caller bug and
// panics, and a stray id or offset must surface as an error, not take the
// daemon down.
func checkIO(server, volume int, off uint64, n int) error {
	if off%block.Size != 0 || n%block.Size != 0 || n <= 0 {
		return ErrAlignment
	}
	end := off + uint64(n)
	if end < off || (end-1)/block.Size > block.MaxBlockNumber ||
		server < 0 || server >= block.MaxServers || volume < 0 || volume >= block.MaxVolumes {
		return ErrRange
	}
	return nil
}

// opKind names the entry point an op context serves.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opPin // ReadPinned: never traced, never bypasses or probes
)

// opNames are the op names sampled traces record.
var opNames = [...]string{opRead: "read", opWrite: "write"}

// op is one ReadAt, WriteAt or ReadPinned call's context: begin builds
// it, the stages below read it, end finishes it. It lives on the caller's
// stack.
type op struct {
	kind           opKind
	server, volume int
	first          uint64 // first block number
	n              int    // blocks
	// now is the op's one read of the injected clock: epoch rotation,
	// tenant repartition, the trace start, the recovery probe and sieve
	// admission all use it.
	now    time.Time
	tr     *metrics.OpTrace // sampled trace, or nil
	start  time.Duration    // monotonic start, when latency is tracked or traced
	bypass bool             // degraded: serve straight from the backend
	probe  bool             // degraded, but this op is the recovery probe
	faults int64            // cache faults seen when the probe began
}

// key returns the key of the op's i-th block.
func (o *op) key(i int) block.Key { return block.MakeKey(o.server, o.volume, o.first+uint64(i)) }

// blockOf returns the i-th block of p.
func blockOf(p []byte, i int) []byte { return p[i*block.Size : (i+1)*block.Size] }

// markServed flags block i of an n-block request as needing no backend
// I/O of its own, allocating the mask on first use. A single-block
// request never gets one: its callers skip the backend outright once the
// block is served.
func markServed(served []bool, i, n int) []bool {
	if n == 1 {
		return nil
	}
	if served == nil {
		served = make([]bool, n)
	}
	served[i] = true
	return served
}

// begin opens the op o on a request that passed checkIO: the trace and
// latency start, the closed check, the degraded bypass or recovery probe
// and — for an op that takes the cached path — epoch rotation, the closed
// re-check and tenant repartition. It reads the injected clock exactly
// once, into o.now, and samples the trace (one atomic add when not
// sampled). An error or o.bypass ends the op before its cached path.
func (s *Store) begin(o *op, kind opKind, server, volume int, off uint64, n int) error {
	// Field by field: assigning a composite literal through o would build
	// it in a temporary and copy it on every op.
	o.kind = kind
	o.server, o.volume = server, volume
	o.first, o.n = off/block.Size, n/block.Size
	if kind != opPin && s.trace != nil && s.trace.Sample() {
		o.tr = &metrics.OpTrace{
			Op:     opNames[kind],
			Server: server,
			Volume: volume,
			Offset: off,
			Blocks: o.n,
			Shard:  s.shardIndex(o.key(0)),
		}
	}
	if s.opts.TrackLatency || o.tr != nil {
		o.start = time.Since(s.monoBase)
	}
	o.now = s.now()
	if o.tr != nil {
		o.tr.StartNS = o.now.UnixNano()
	}
	if s.closed.Load() {
		return ErrClosed
	}
	if s.degraded.Load() {
		if o.tr != nil {
			o.tr.Degraded = true
		}
		// ReadPinned leaves the bypass and the probe to its ReadAt
		// fallback.
		if kind == opPin || !s.probeDue(&s.lastCacheProbe, o.now) {
			o.bypass = true
			return nil
		}
		// This caller is the recovery probe: it takes the normal cached
		// path, and end leaves bypass mode if it completes without a fresh
		// cache fault.
		o.probe = true
		o.faults = s.cacheFaults.Load()
	}
	s.maybeRotate(o.now)
	if s.closed.Load() {
		return ErrClosed
	}
	s.tenantTick(o.now)
	return nil
}

// end closes an op begun by begin: the recovery probe's exit from bypass
// mode, the latency observation and the trace record. It returns err.
func (s *Store) end(o *op, err error) error {
	if o.probe && err == nil && s.cacheFaults.Load() == o.faults {
		s.exitDegraded()
	}
	if !s.opts.TrackLatency && o.tr == nil {
		return err
	}
	d := time.Since(s.monoBase) - o.start
	if s.opts.TrackLatency {
		hist, errs := &s.histRead, &s.errRead
		if o.kind == opWrite {
			hist, errs = &s.histWrite, &s.errWrite
		}
		hist.Observe(d)
		if err != nil {
			errs.Add(1)
		}
	}
	if o.tr != nil {
		o.tr.LatencyNS = d.Nanoseconds()
		if err != nil {
			o.tr.Err = err.Error()
		}
		s.trace.Record(*o.tr)
	}
	return err
}

// ReadAt reads len(p) bytes from the volume at off, serving cached blocks
// from the cache and the rest from the backend. Missing blocks are offered
// to the sieve and admitted only if it approves.
//
// The backend fetch happens without any shard lock: missing keys are first
// reserved in their shard's in-flight table (misses already being fetched
// by another caller are joined rather than refetched), then read from the
// ensemble, and finally — under the shard lock again — offered to the
// sieve and installed.
func (s *Store) ReadAt(server, volume int, p []byte, off uint64) error {
	return s.do(opRead, server, volume, p, off)
}

// do is the one op path of ReadAt and WriteAt: the entry check, begin,
// the degraded bypass or the kind's cached path, then end.
func (s *Store) do(kind opKind, server, volume int, p []byte, off uint64) error {
	if err := checkIO(server, volume, off, len(p)); err != nil {
		return err
	}
	var o op
	err := s.begin(&o, kind, server, volume, off, len(p))
	switch {
	case err != nil:
	case o.bypass:
		err = s.bypass(&o, p)
	case kind == opRead:
		err = s.readCached(&o, p)
	default:
		err = s.writeCached(&o, p)
	}
	return s.end(&o, err)
}

// bypass serves an op while degraded, straight from or to the backend: no
// admission, no access logging, no epoch rotation — the degraded store
// does the minimum that keeps clients correct. A read still serves dirty
// write-back blocks from the cache, whose frame holds their only current
// copy. A successful write then drops any cached copies of its range: the
// cache is not being maintained, so a stale resident frame (or an
// in-flight fetch of pre-write data) must not survive to be served after
// recovery.
func (s *Store) bypass(o *op, p []byte) error {
	write := o.kind == opWrite
	var served []bool
	var dirty int
	if !write && s.opts.WriteBack {
		for _, g := range s.groupByShard(o.server, o.volume, o.first, o.n) {
			g.sh.mu.Lock()
			for _, i := range g.idxs {
				key := o.key(i)
				if g.sh.dirty[key] && g.sh.frames[key] != nil {
					copy(blockOf(p, i), g.sh.frames[key])
					served = markServed(served, i, o.n)
					dirty++
				}
			}
			g.sh.mu.Unlock()
		}
	}
	var reqs, bytes int64
	var err error
	if dirty < o.n {
		reqs, bytes, _, err = s.backendRuns(write, o, p, served)
	}
	sh := s.shardOf(o.key(0))
	sh.mu.Lock()
	if write {
		sh.stats.Writes += int64(o.n)
	} else {
		sh.stats.Reads += int64(o.n)
		sh.stats.ReadHits += int64(dirty)
		sh.stats.CacheBytesServed += int64(dirty) * block.Size
	}
	sh.stats.chargeBackend(write, reqs, bytes)
	sh.mu.Unlock()
	s.tenantAccess(o.server, o.volume, int64(o.n), write)
	s.tenantHits(o.server, o.volume, int64(dirty))
	if write {
		if err != nil {
			return err
		}
		s.bypassWrites.Add(int64(o.n))
		// The whole range was just overwritten in the backend, so a dirty
		// frame is superseded: drop it without write-back.
		s.dropRange(o.server, o.volume, o.first, o.n, false)
	} else {
		s.bypassReads.Add(int64(o.n))
	}
	if o.tr != nil {
		o.tr.Bypass = true
		o.tr.Hits = dirty
		o.tr.Misses = o.n - dirty
	}
	return err
}

// readCached is ReadAt's cached path.
func (s *Store) readCached(o *op, p []byte) error {
	s.logAccess(o, o.n)

	// RAM-tier pass: blocks resident in the in-process tier are served
	// under its read lock plus one atomic reference-bit store — no shard
	// mutex, no policy bookkeeping. Hit accounting lives in the tier's
	// own atomics (folded into Stats), so an all-tier read touches no
	// shard at all.
	var served []bool // blocks needing no fetch of their own (markServed)
	var nTier int
	if s.tier != nil {
		for i := 0; i < o.n; i++ {
			if s.tier.Lookup(o.key(i), blockOf(p, i)) {
				served = markServed(served, i, o.n)
				nTier++
			}
		}
	}

	// A miss is either owned (this call fetches it) or joined (another
	// call's flight will deliver it); idx is the block's position in p.
	type miss struct {
		idx int
		key block.Key
		f   *flight
		sh  *shard
	}
	var mine, joined []miss

	// Classify run-wise: each maximal run of consecutive blocks mapping to
	// the same shard is handled in one critical section (with Shards=1 the
	// whole request is a single critical section, exactly the unsharded
	// behavior). An all-tier read has nothing left to classify.
	for i := 0; nTier < o.n && i < o.n; {
		if served != nil && served[i] {
			i++
			continue
		}
		sh := s.shardOf(o.key(i))
		j := i + 1
		for j < o.n && (served == nil || !served[j]) && s.shardOf(o.key(j)) == sh {
			j++
		}
		sh.mu.Lock()
		for ; i < j; i++ {
			key := o.key(i)
			if sh.hitLocked(key, blockOf(p, i)) != nil {
				served = markServed(served, i, o.n)
				continue
			}
			sh.stats.Reads++
			if f, ok := sh.inflight[key]; ok {
				f.waiters++
				sh.stats.CoalescedReads++
				joined = append(joined, miss{idx: i, key: key, f: f, sh: sh})
				served = markServed(served, i, o.n)
				continue
			}
			f := &flight{done: make(chan struct{})}
			sh.inflight[key] = f
			mine = append(mine, miss{idx: i, key: key, f: f, sh: sh})
		}
		sh.mu.Unlock()
	}

	var fetchErr error
	var admitted int
	if len(mine) > 0 {
		// Fetch owned misses from the ensemble — lock-free, so concurrent
		// callers overlap their backend latency. (Runs follow block
		// adjacency, not shard boundaries: backend request geometry is
		// unchanged by sharding.)
		reqs, bytes, failedAt, err := s.backendRuns(false, o, p, served)
		fetchErr = err
		// Re-acquire shard by shard to account, admit, and complete the
		// owned flights. Blocks fetched before a failed run are still
		// admitted. Backend counters are charged once, to the first shard
		// touched.
		for lo := 0; lo < len(mine); {
			sh := mine[lo].sh
			hi := lo + 1
			for hi < len(mine) && mine[hi].sh == sh {
				hi++
			}
			sh.mu.Lock()
			if lo == 0 {
				sh.stats.chargeBackend(false, reqs, bytes)
			}
			for _, m := range mine[lo:hi] {
				ferr := fetchErr
				if m.idx < failedAt {
					ferr = nil
				}
				if sh.finishFetchLocked(m.key, m.f, blockOf(p, m.idx), ferr, o.now) {
					admitted++
				}
			}
			sh.mu.Unlock()
			lo = hi
		}
	}
	// Hits include tier-served blocks (skipped from shard classification)
	// — everything the request found already cached.
	hits := o.n - len(mine) - len(joined)
	s.tenantHits(o.server, o.volume, int64(hits))
	if o.tr != nil {
		o.tr.Misses = len(mine)
		o.tr.Coalesced = len(joined)
		o.tr.Hits = hits
		o.tr.TierHits = nTier
		o.tr.Admitted = admitted
	}
	if fetchErr != nil {
		return fetchErr
	}

	// Join coalesced misses last: every flight this call owns is already
	// completed above, so blocking here cannot deadlock.
	for _, m := range joined {
		if err := s.awaitFlight(m.sh, m.f, m.key, blockOf(p, m.idx)); err != nil {
			return err
		}
	}
	return nil
}

// awaitFlight waits for another caller's in-flight fetch of key and copies
// the result into dst. If that flight failed, the block is re-fetched
// directly (joining yet another flight if one has appeared meanwhile).
func (s *Store) awaitFlight(sh *shard, f *flight, key block.Key, dst []byte) error {
	for {
		<-f.done
		if f.err == nil {
			copy(dst, f.data)
			f.release()
			return nil
		}
		sh.mu.Lock()
		if s.closed.Load() {
			sh.mu.Unlock()
			return ErrClosed
		}
		if sh.tags.Touch(key) {
			copy(dst, sh.frames[key])
			sh.stats.ReadHits++
			sh.stats.CacheBytesServed += block.Size
			sh.mu.Unlock()
			return nil
		}
		if nf, ok := sh.inflight[key]; ok {
			nf.waiters++
			sh.mu.Unlock()
			f = nf
			continue
		}
		nf := &flight{done: make(chan struct{})}
		sh.inflight[key] = nf
		sh.mu.Unlock()

		err := s.backend.ReadAt(key.Server(), key.Volume(), dst, key.Offset())

		sh.mu.Lock()
		if err == nil {
			sh.stats.chargeBackend(false, 1, block.Size)
		}
		// Admit at the post-fetch clock, not the caller's op-start one: this
		// path may have waited on several flights, and a stale timestamp
		// would admit through a sieve window that has in fact already
		// expired.
		sh.finishFetchLocked(key, nf, dst, err, s.now())
		sh.mu.Unlock()
		return err
	}
}

// backendRuns issues an op's backend I/O for the blocks of p that skip
// leaves unmarked (nil skips none): one request per maximal run of
// consecutive blocks, in block order, stopping at the first failure. It
// returns the requests and bytes that succeeded and the index of the
// failed run's first block (o.n when none failed).
func (s *Store) backendRuns(write bool, o *op, p []byte, skip []bool) (reqs, bytes int64, failedAt int, err error) {
	for i := 0; i < o.n; {
		if skip != nil && skip[i] {
			i++
			continue
		}
		j := i + 1
		for j < o.n && (skip == nil || !skip[j]) {
			j++
		}
		buf, off := p[i*block.Size:j*block.Size], (o.first+uint64(i))*block.Size
		if write {
			err = s.backend.WriteAt(o.server, o.volume, buf, off)
		} else {
			err = s.backend.ReadAt(o.server, o.volume, buf, off)
		}
		if err != nil {
			return reqs, bytes, i, err
		}
		reqs++
		bytes += int64(len(buf))
		i = j
	}
	return reqs, bytes, o.n, nil
}

// chargeBackend counts backend requests and bytes that succeeded; read
// bytes are also bytes served to the client from the backend.
func (st *Stats) chargeBackend(write bool, reqs, bytes int64) {
	if write {
		st.BackendWrites += reqs
		st.BackendBytesWritten += bytes
		return
	}
	st.BackendReads += reqs
	st.BackendBytesRead += bytes
	st.BackendBytesServedRead += bytes
}

// writeGroup is the slice of a write's block indices that map to one
// shard; groups are always visited in ascending shard order (the global
// lock-ordering rule).
type writeGroup struct {
	sh   *shard
	idxs []int
}

// groupByShard buckets the blocks [first, first+n) by shard, ascending.
func (s *Store) groupByShard(server, volume int, first uint64, n int) []writeGroup {
	if len(s.shards) == 1 {
		idxs := make([]int, n)
		for i := range idxs {
			idxs[i] = i
		}
		return []writeGroup{{sh: s.shards[0], idxs: idxs}}
	}
	buckets := make([][]int, len(s.shards))
	for i := 0; i < n; i++ {
		si := s.shardIndex(block.MakeKey(server, volume, first+uint64(i)))
		buckets[si] = append(buckets[si], i)
	}
	groups := make([]writeGroup, 0, len(s.shards))
	for si, idxs := range buckets {
		if len(idxs) > 0 {
			groups = append(groups, writeGroup{sh: s.shards[si], idxs: idxs})
		}
	}
	return groups
}

// WriteAt writes p through to the backend, updating cached blocks in place
// and offering missing blocks to the sieve.
//
// The backend write happens without any shard lock. The written key range
// is reserved in the shards' in-flight tables first — shard groups in
// ascending index order, all-or-nothing within each shard — which (a)
// serializes overlapping writes so backend order and cache order cannot
// invert, and (b) lets concurrent read misses on these keys coalesce onto
// the written data instead of racing the write with a backend fetch.
func (s *Store) WriteAt(server, volume int, p []byte, off uint64) error {
	return s.do(opWrite, server, volume, p, off)
}

// writeCached is WriteAt's cached path.
func (s *Store) writeCached(o *op, p []byte) error {
	s.logAccess(o, o.n)
	groups := s.groupByShard(o.server, o.volume, o.first, o.n)
	flights := make([]*flight, o.n)
	for gi, g := range groups {
		g.sh.mu.Lock()
		g.sh.stats.Writes += int64(len(g.idxs))
		fs, rerr := g.sh.reserveLocked(o.server, o.volume, o.first, g.idxs)
		if rerr != nil {
			g.sh.mu.Unlock()
			// Release the reservations already held in earlier shards.
			for _, pg := range groups[:gi] {
				pg.sh.mu.Lock()
				pg.sh.completeLocked(o.server, o.volume, o.first, pg.idxs, flights, nil, rerr)
				pg.sh.mu.Unlock()
			}
			return rerr
		}
		for k, i := range g.idxs {
			flights[i] = fs[k]
		}
		g.sh.mu.Unlock()
	}

	var t writeTally
	var reqs, bytes int64
	var werr error
	if s.opts.WriteBack {
		// Write-back: cached (and newly admitted) blocks absorb the write
		// and are marked dirty; only the remaining blocks reach the
		// backend now.
		var absorbed []bool
		for _, g := range groups {
			g.sh.mu.Lock()
			for _, i := range g.idxs {
				if g.sh.absorbLocked(o, i, blockOf(p, i), flights[i], &t) {
					absorbed = markServed(absorbed, i, o.n)
				}
			}
			g.sh.mu.Unlock()
		}
		if t.hits+t.admitted < o.n {
			reqs, bytes, _, werr = s.backendRuns(true, o, p, absorbed)
		}
	} else {
		// Write-through: the backend is always authoritative. Write it
		// first (unlocked); the cache absorbs the data shard by shard
		// below.
		reqs, bytes, _, werr = s.backendRuns(true, o, p, nil)
	}
	for gi, g := range groups {
		g.sh.mu.Lock()
		if gi == 0 {
			g.sh.stats.chargeBackend(true, reqs, bytes)
		}
		if !s.opts.WriteBack && werr == nil {
			for _, i := range g.idxs {
				g.sh.absorbLocked(o, i, blockOf(p, i), flights[i], &t)
			}
		}
		g.sh.completeLocked(o.server, o.volume, o.first, g.idxs, flights, p, werr)
		g.sh.mu.Unlock()
	}
	s.tenantHits(o.server, o.volume, int64(t.hits))
	if o.tr != nil {
		o.tr.Hits = t.hits
		o.tr.Misses = o.n - t.hits
		o.tr.Admitted = t.admitted
	}
	return werr
}

// dropRange runs the key-drop stage over [first, first+n), shard by shard
// in ascending order, and returns how many blocks were resident. flush
// writes a dirty block back before dropping it; on a write-back failure
// the block stays and the error is returned.
func (s *Store) dropRange(server, volume int, first uint64, n int, flush bool) (int, error) {
	dropped := 0
	for _, g := range s.groupByShard(server, volume, first, n) {
		g.sh.mu.Lock()
		for _, i := range g.idxs {
			resident, err := g.sh.dropLocked(block.MakeKey(server, volume, first+uint64(i)), flush)
			if err != nil {
				g.sh.mu.Unlock()
				return dropped, err
			}
			if resident {
				dropped++
			}
		}
		g.sh.mu.Unlock()
	}
	return dropped, nil
}

// Flush writes every currently-dirty block back to the ensemble
// (write-back mode), shard by shard in ascending order. The backend I/O is
// staged: no shard lock is held while streaming, so concurrent reads and
// writes proceed. Blocks whose write-back fails stay dirty and resident
// and are counted in Stats.FlushErrors; every shard is still visited and
// the first error is returned.
//
// With Options.GroupCommitWindow set, concurrent flushes group-commit:
// the first caller opens a batch and waits out the window before
// sweeping, and every Flush arriving meanwhile shares that one sweep's
// outcome instead of walking the shards again.
func (s *Store) Flush() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.opts.GroupCommitWindow <= 0 {
		return s.flushAll()
	}
	s.gcMu.Lock()
	if b := s.gcBatch; b != nil {
		s.gcMu.Unlock()
		s.coalescedFlushes.Add(1)
		<-b.done
		return b.err
	}
	b := &flushBatch{done: make(chan struct{})}
	s.gcBatch = b
	s.gcMu.Unlock()

	// The window wait goes through the injected Options.Sleep seam (the
	// only intentional wait on the I/O paths) so flush-window tests pair
	// it with Options.Now and run without real sleeps.
	s.opts.Sleep(s.opts.GroupCommitWindow)
	// Close the batch to joiners before sweeping: a Flush arriving after
	// this point may be triggered by a write the sweep won't see, so it
	// must start (or join) the next batch rather than this one.
	s.gcMu.Lock()
	s.gcBatch = nil
	s.gcMu.Unlock()
	s.groupCommits.Add(1)
	b.err = s.flushAll()
	close(b.done)
	return b.err
}

// flushAll is one staged write-back sweep over every shard.
func (s *Store) flushAll() error {
	return s.eachShard(func(sh *shard) error { return sh.flushStagedLocked(nil) })
}

// eachShard runs fn under each shard's lock, in ascending order, and
// returns the first error; a failure does not stop the sweep.
func (s *Store) eachShard(fn func(sh *shard) error) error {
	var err error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if ferr := fn(sh); err == nil {
			err = ferr
		}
		sh.mu.Unlock()
	}
	return err
}

// Bounded parallelism and run sizing for staged transitions (epoch batch
// fetches, staged flushes): backend requests cover contiguous multi-block
// runs of at most transitionMaxRun blocks, issued by at most
// transitionWorkers goroutines.
const (
	transitionWorkers = 8
	transitionMaxRun  = 64 // blocks per backend request (32 KiB)
)

// keyRun is a half-open index range [lo, hi) of consecutive blocks.
type keyRun struct{ lo, hi int }

// contiguousRuns splits sorted keys into runs of consecutive blocks on the
// same server and volume, each at most transitionMaxRun long. include, if
// non-nil, masks individual indices out of the runs.
func contiguousRuns(keys []block.Key, include func(int) bool) []keyRun {
	var runs []keyRun
	for i := 0; i < len(keys); {
		if include != nil && !include(i) {
			i++
			continue
		}
		j := i + 1
		for j < len(keys) && j-i < transitionMaxRun &&
			keys[j] == keys[j-1]+1 &&
			keys[j].Server() == keys[j-1].Server() &&
			keys[j].Volume() == keys[j-1].Volume() &&
			(include == nil || include(j)) {
			j++
		}
		runs = append(runs, keyRun{lo: i, hi: j})
		i = j
	}
	return runs
}

// forEach invokes do(i) for every i in [0, n) on at most
// transitionWorkers goroutines — inline, with no goroutine, when n ≤ 1.
// After the first error no new calls are started; the first error is
// returned. do must confine its writes to per-index state — forEach
// provides the happens-before edge back to the caller.
func forEach(n int, do func(i int) error) error {
	workers := transitionWorkers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := do(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if first != nil || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if err := do(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// fetchBatch reads the given blocks from the ensemble in contiguous
// multi-block runs with bounded parallelism. It is called WITHOUT any
// shard lock and touches no store state besides the backend; the returned
// frames are freshly allocated, one per key. Partial work on error is
// reflected in the request/byte counts so the caller can account it.
func (s *Store) fetchBatch(keys []block.Key) (map[block.Key][]byte, int64, int64, error) {
	if len(keys) == 0 {
		return nil, 0, 0, nil
	}
	sorted := append([]block.Key(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	runs := contiguousRuns(sorted, nil)
	bufs := make([][]byte, len(sorted))
	ran := make([]bool, len(runs))
	err := forEach(len(runs), func(ri int) error {
		r := runs[ri]
		n := r.hi - r.lo
		buf := make([]byte, n*block.Size)
		k0 := sorted[r.lo]
		if e := s.backend.ReadAt(k0.Server(), k0.Volume(), buf, k0.Offset()); e != nil {
			return fmt.Errorf("core: epoch move for %v: %w", k0, e)
		}
		for i := 0; i < n; i++ {
			bufs[r.lo+i] = buf[i*block.Size : (i+1)*block.Size : (i+1)*block.Size]
		}
		ran[ri] = true
		return nil
	})
	var nReads, nBytes int64
	for ri, r := range runs {
		if ran[ri] {
			nReads++
			nBytes += int64(r.hi-r.lo) * block.Size
		}
	}
	if err != nil {
		return nil, nReads, nBytes, err
	}
	fetched := make(map[block.Key][]byte, len(sorted))
	for i, k := range sorted {
		fetched[k] = bufs[i]
	}
	return fetched, nReads, nBytes, nil
}

// now returns the injected current time.
func (s *Store) now() time.Time { return s.opts.Now() }

// Traces returns the sampled operation lifecycle records, newest first
// (nil when Options.TraceSample is 0).
func (s *Store) Traces() []metrics.OpTrace {
	if s.trace == nil {
		return nil
	}
	return s.trace.Dump()
}

// LatencyHistograms returns mergeable log-bucketed distributions of
// whole-call ReadAt and WriteAt service times. Empty unless
// Options.TrackLatency is set.
func (s *Store) LatencyHistograms() (read, write metrics.HistogramSnapshot) {
	return s.histRead.Snapshot(), s.histWrite.Snapshot()
}

// SieveStats sums the per-shard continuous-sieve (IMCT/MCT) counters.
// All-zero for VariantD, which has no online sieve.
func (s *Store) SieveStats() sieve.CStats {
	var out sieve.CStats
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.sieveC != nil {
			st := sh.sieveC.Stats()
			out.Misses += st.Misses
			out.Promotions += st.Promotions
			out.Allocations += st.Allocations
			out.Pruned += st.Pruned
			out.MCTSize += st.MCTSize
		}
		sh.mu.Unlock()
	}
	return out
}

// SpillStats returns the SieveStore-D access logger's partition stats;
// ok is false for VariantC (no logger).
func (s *Store) SpillStats() (st sieved.LoggerStats, ok bool) {
	if s.logger == nil {
		return sieved.LoggerStats{}, false
	}
	return s.logger.Stats(), true
}

// testLogHook, when non-nil, runs at the top of logAccess — tests use it
// to stall the access-logging path and prove the hit path no longer
// serializes behind it. Set and cleared only while no store operations are
// running.
var testLogHook func()

// testSpillFault, when non-nil, injects an error into logAccess before the
// logger is touched — tests use it to drive the spill-disable path without
// breaking the logger's real files. Set and cleared only while no store
// operations are running.
var testSpillFault func() error

// logAccess is the per-op access step for the op's first n blocks: it
// charges the tenant's access and records the access for the offline
// sieve (VariantD only). It runs before any shard lock is taken: the
// logger's buffered file I/O (including its 64 KiB buffer flushes) must
// never stall concurrent hits.
//
// Logging failures must not fail the I/O path; the worst case is a slightly
// stale epoch selection. They are surfaced via Close — and after
// DegradedFaultThreshold consecutive failures, access logging is disabled
// for the rest of the epoch (the spill device is presumed sick). One probe
// per DegradedProbeEvery retries; a success, or the epoch rotation's log
// reset, re-enables logging.
func (s *Store) logAccess(o *op, n int) {
	s.tenantAccess(o.server, o.volume, int64(n), o.kind == opWrite)
	if s.logger == nil {
		return
	}
	if h := testLogHook; h != nil {
		h()
	}
	if s.spillDisabled.Load() && !s.probeDue(&s.lastSpillProbe, o.now) {
		return
	}
	var err error
	if f := testSpillFault; f != nil {
		err = f()
	}
	if err == nil {
		if n == 1 {
			err = s.logger.Log(o.key(0))
		} else {
			keys := make([]block.Key, n)
			for i := range keys {
				keys[i] = o.key(i)
			}
			err = s.logger.LogBatch(keys)
		}
	}
	s.noteSpill(err, o.now)
}

// noteSpill tracks consecutive access-log failures and flips the
// spill-disable switch across the threshold (or back, on a successful
// probe), for an access logged at now.
func (s *Store) noteSpill(err error, now time.Time) {
	if err == nil {
		s.spillFaultStreak.Store(0)
		s.spillDisabled.Store(false)
		return
	}
	streak := s.spillFaultStreak.Add(1)
	thr := int64(s.opts.DegradedFaultThreshold)
	if thr > 0 && streak >= thr && s.spillDisabled.CompareAndSwap(false, true) {
		s.spillDisables.Add(1)
		s.lastSpillProbe.Store(now.UnixNano())
	}
}

// updateDeadlineLocked recomputes the next epoch boundary after curEpoch
// advances or the schedule restarts. Caller must hold rotMu.
func (s *Store) updateDeadlineLocked() {
	s.deadline.Store(s.start.Add(time.Duration(s.curEpoch+1) * s.opts.Epoch).UnixNano())
}

// maybeRotate rotates VariantD epochs that have elapsed by the op time
// now. The hot path pays one atomic deadline load; past the deadline, the
// rotation runs inline in the triggering caller with no shard lock held
// across its backend I/O. Callers arriving meanwhile see rotating and
// proceed without blocking (the in-progress rotation covers the due
// boundary).
func (s *Store) maybeRotate(now time.Time) {
	if s.logger == nil || now.UnixNano() < s.deadline.Load() {
		return
	}
	s.rotMu.Lock()
	if s.rotating || s.closed.Load() {
		s.rotMu.Unlock()
		return
	}
	for {
		epoch := int64(s.now().Sub(s.start) / s.opts.Epoch)
		if s.curEpoch >= epoch {
			break
		}
		// Advance the schedule before the staged work so concurrent ops'
		// deadline checks skip this boundary. On an abort the next
		// boundary (or a manual RotateEpoch) retries with the counts
		// still accumulating — exactly the unsharded retry schedule.
		s.curEpoch++
		s.updateDeadlineLocked()
		if _, err := s.rotateLocked(); err != nil || s.closed.Load() {
			break
		}
	}
	s.rotMu.Unlock()
}

// rotateLocked runs one staged epoch transition, owning the rotating flag
// and releasing rotMu (which the caller holds) around it, and counts an
// abort. An aborted transition touched nothing: the spill logs and the
// previous epoch's cache set are intact. A post-commit reset failure is
// counted separately (ResetFailures, inside rotateStaged) — the rotation
// itself took effect.
func (s *Store) rotateLocked() (committed bool, err error) {
	s.rotating = true
	s.rotMu.Unlock()
	committed, err = s.rotateStaged()
	s.rotMu.Lock()
	s.rotating = false
	s.rotCond.Broadcast()
	if !committed {
		s.rotateFailures.Add(1)
	}
	return committed, err
}

// RotateEpoch forces an immediate SieveStore-D epoch boundary: the current
// logs are reduced, qualifying blocks are batch-allocated (fetching their
// data from the ensemble), and the logs reset. The epoch schedule restarts
// from here — the next automatic rotation happens one full Epoch after the
// epoch containing the current time, not at the originally scheduled
// boundary (otherwise a near-boundary manual rotation would immediately be
// followed by an automatic one over empty logs, wiping the cache). It is a
// no-op for VariantC.
func (s *Store) RotateEpoch() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.logger == nil {
		return nil
	}
	s.rotMu.Lock()
	// Wait out a transition already in progress, then run our own: the
	// caller asked for a boundary *now*, after whatever was already due.
	for s.rotating {
		s.rotCond.Wait()
	}
	if s.closed.Load() {
		s.rotMu.Unlock()
		return ErrClosed
	}
	committed, err := s.rotateLocked()
	if committed {
		// Restart the schedule: the next automatic rotation is one full
		// Epoch from now. (start is only used for epoch scheduling under
		// VariantD.) The boundary took effect even if the post-commit log
		// reset failed — that error is returned but counted in
		// ResetFailures, not as an abort.
		s.start = s.now()
		s.curEpoch = 0
		s.updateDeadlineLocked()
	}
	s.rotMu.Unlock()
	return err
}

// rotateStaged performs one SieveStore-D epoch transition. Called with NO
// locks held (the caller owns the rotating flag); shard locks are taken
// per stage, always in ascending shard order, and never held across
// backend I/O — concurrent reads and writes keep being served throughout.
// The transition is failure-atomic: any error before the final swap leaves
// both the spill logs and the cache contents exactly as they were (Select
// does not reset the logs; Reset runs only after the swap commits).
// committed reports whether the swap took effect: a reset error after the
// commit is returned with committed true so callers can count it
// separately from an abort.
//
// With multiple shards the swap itself commits shard by shard: a reader
// can briefly observe shard i serving the new epoch's set while shard j
// still serves the old one. Each shard's swap is atomic under its lock,
// and the paper's semantics (a single global swap) are exact at Shards=1.
func (s *Store) rotateStaged() (committed bool, err error) {
	// Stage 0: arm every shard — from here until its commit (or disarm on
	// abort), writes and invalidations record skipped keys in rotSkip so
	// the swap cannot install a fetched copy that their data supersedes.
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.rotSkip = make(map[block.Key]bool)
		sh.mu.Unlock()
	}
	defer func() {
		if !committed { // abort: disarm every shard
			for _, sh := range s.shards {
				sh.mu.Lock()
				sh.rotSkip = nil
				sh.mu.Unlock()
			}
		}
	}()

	// Quotas repartition at every epoch boundary: the ending epoch's
	// per-tenant hits are the freshest demand signal, and the selection
	// clip below then runs against the new split.
	if s.acct != nil {
		s.acct.Repartition(s.now())
	}

	// Stage 1: reduce the logs and select the new set — no locks held.
	selected, err := s.logger.Select(s.opts.DThreshold)
	if err != nil {
		return false, err
	}
	// Tenant quotas clip the hottest-first selection before the capacity
	// cut: each tenant keeps at most its quota blocks, so a churning
	// tenant's one-hit wonders cannot consume capacity slots a stable
	// tenant's (cooler but reused) blocks would fill.
	if s.acct != nil {
		selected, _ = s.acct.ClipSelection(selected)
	}
	total := 0
	for _, sh := range s.shards {
		total += sh.tags.Capacity()
	}
	if len(selected) > total {
		selected = selected[:total] // Select orders hottest-first
	}
	// Split the selection across shards, preserving hottest-first order
	// within each; a shard takes at most its own capacity. A skewed
	// key→shard distribution can overflow one shard while others sit
	// half-empty — those hot blocks are lost for the epoch, so count them
	// in SelectOverflow instead of dropping them silently.
	perShard := make([][]block.Key, len(s.shards))
	var splitOverflow int64
	for _, k := range selected {
		si := s.shardIndex(k)
		if len(perShard[si]) < s.shards[si].tags.Capacity() {
			perShard[si] = append(perShard[si], k)
		} else {
			splitOverflow++
		}
	}

	// Stage 2: fetch the selected blocks that are not already resident —
	// off-lock, in contiguous multi-block runs with bounded parallelism.
	// (Residency only shrinks while rotating: VariantD admits solely at
	// epoch boundaries, so "need" cannot grow stale the dangerous way.)
	// A hard-throttled tenant's endurance budget caps how many *new*
	// installs this epoch may fetch on its behalf: blocks past the
	// allowance stay unselected (counted as tenant clips) — retained
	// residents cost no SSD writes and are unaffected.
	var allow map[tenant.ID]int64
	if s.acct.EnduranceEnabled() {
		allow = make(map[tenant.ID]int64)
	}
	rotNow := s.now()
	var need []block.Key
	for si, sh := range s.shards {
		sh.mu.Lock()
		for _, k := range perShard[si] {
			if sh.tags.Contains(k) {
				continue
			}
			if allow != nil {
				id := tenant.IDOf(k)
				left, seen := allow[id]
				if !seen {
					left = s.acct.AllowanceBlocks(id, rotNow)
				}
				if left <= 0 {
					allow[id] = 0
					s.acct.NoteClip(id, 1)
					continue
				}
				allow[id] = left - 1
			}
			need = append(need, k)
		}
		sh.mu.Unlock()
	}
	fetched, nReads, nBytes, err := s.fetchBatch(need)
	// The split overflow and the batch reads are charged to shard 0.
	if splitOverflow > 0 || nReads > 0 {
		sh0 := s.shards[0]
		sh0.mu.Lock()
		sh0.stats.SelectOverflow += splitOverflow
		sh0.stats.BackendReads += nReads
		sh0.stats.BackendBytesRead += nBytes
		sh0.mu.Unlock()
	}
	if err != nil {
		return false, err
	}
	if s.closed.Load() {
		return false, ErrClosed
	}

	// Stage 3: write back dirty blocks the swap would evict — staged like
	// Flush, shard by shard ascending, and aborting the rotation on
	// failure (evicting them unflushed would lose data).
	inNew := make(map[block.Key]bool, len(selected))
	for si := range s.shards {
		for _, k := range perShard[si] {
			inNew[k] = true
		}
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		ferr := sh.flushStagedLocked(func(k block.Key) bool { return !inNew[k] })
		sh.mu.Unlock()
		if ferr != nil {
			return false, ferr
		}
	}
	if s.closed.Load() {
		return false, ErrClosed
	}

	// Stage 4: commit — each shard swaps under its own lock, no backend
	// I/O, ascending order.
	for si, sh := range s.shards {
		sh.mu.Lock()
		sh.commitEpochLocked(perShard[si], fetched)
		sh.mu.Unlock()
	}
	s.epochs.Add(1)

	// The RAM-tier advisor replays this epoch's access counts against
	// the drive-cost model before stage 5 resets them (no-op with the
	// tier disabled, keeping the tierless rotation byte-identical).
	s.tierEpochAdvice()

	// Stage 5: reset the logs — no locks held again (the logger is safe
	// for concurrent use, and accesses logged since Select carry into the
	// new epoch). The swap is already committed; a reset failure is
	// surfaced but no longer rolls anything back — the rotation itself
	// took effect (counted in Epochs, not RotateFailures), and tuples in
	// partitions the reset could not clear double-count into the next
	// epoch's selection.
	if rerr := s.logger.Reset(); rerr != nil {
		s.resetFailures.Add(1)
		return true, fmt.Errorf("core: epoch log reset: %w", rerr)
	}
	// Fresh logs on a working spill device: if logging had been disabled
	// for the old epoch, resume it for the new one.
	s.spillFaultStreak.Store(0)
	s.spillDisabled.Store(false)
	return true, nil
}

// Contains reports whether a block is currently cached (test/debug aid);
// false for ids or offsets a block.Key cannot address.
func (s *Store) Contains(server, volume int, off uint64) bool {
	off -= off % block.Size
	if checkIO(server, volume, off, block.Size) != nil {
		return false
	}
	key := block.MakeKey(server, volume, off/block.Size)
	sh := s.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.tags.Contains(key)
}

// Invalidate drops any cached blocks overlapping [off, off+length) of the
// volume, returning how many were resident. Use it when the backing
// ensemble is modified outside the Store (the write-through design makes
// this unnecessary for I/O that goes through the Store itself).
func (s *Store) Invalidate(server, volume int, off uint64, length int) (int, error) {
	if err := checkIO(server, volume, off, length); err != nil {
		return 0, err
	}
	if s.closed.Load() {
		return 0, ErrClosed
	}
	// A dirty block holds the only current copy: write it back before
	// dropping, or the data would be lost.
	return s.dropRange(server, volume, off/block.Size, length/block.Size, true)
}
