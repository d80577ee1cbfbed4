package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/sieve"
)

const (
	hotsetCacheBytes = 8 << 20
	hotsetShards     = 8
	// hotsetSpan is each tenant's Zipf span: 16× the cache's blocks.
	hotsetSpan = 16 * hotsetCacheBytes / block.Size
	// hotsetTimeEvery: a hit takes well under a microsecond, so only
	// 1 in 16 requests is timed, to keep clock reads off the hit path.
	hotsetTimeEvery = 16
	// hotsetTraceEvery is the 1-in-N subset the traced run records spans
	// for.
	hotsetTraceEvery = 16
	// hotsetRate is the nominal request rate that sizes a round: a round
	// measures seconds/rounds × hotsetRate requests.
	hotsetRate = 1_200_000
	// hotsetWarmRequests is the warm-up. It spans three sieve windows
	// (hotsetWindowRequests): the cache fills after about 3.5 M requests,
	// and by then the sieve's miss counts have turned over, so hit ratio
	// and admission rate are steady when measurement starts. On a wall
	// clock the 8 h window would never turn over, and admissions per
	// request would keep rising through the run.
	hotsetWarmRequests   = 4_500_000
	hotsetWindowRequests = 1_500_000
)

// hotsetStep is the store time one hot-set request takes: the store's
// clock advances with requests issued, so the default sieve's 8 h miss
// window spans hotsetWindowRequests requests however fast they are served.
var hotsetStep = sieve.DefaultCConfig().Window / hotsetWindowRequests

// hotsetOptions is the hot set's store configuration; metrics selects
// TrackLatency and TraceSample.
func hotsetOptions(metrics bool, tk *ticker) core.Options {
	o := core.Options{
		Now:            tk.Now,
		CacheBytes:     hotsetCacheBytes,
		Shards:         hotsetShards,
		Policy:         "sieve",
		Variant:        core.VariantC,
		RAMTierBytes:   hotsetCacheBytes / 20 / block.Size * block.Size,
		TenantTracking: true,
	}
	if metrics {
		o.TrackLatency, o.TraceSample = true, 64
	}
	return o
}

// hotsetRound runs two in-process clients against one production-shaped
// appliance store: a fixed warm-up, which must leave the cache full and
// evicting, then the measured phase.
func hotsetRound(p params, o roundOpts) (*roundResult, error) {
	t0 := roundStart()
	r := &roundResult{layer: map[string]float64{}}
	ten := &tenantMap{}
	tenants := []int{ten.add(0, 0), ten.add(1, 0)}
	caps := []uint64{hotsetSpan * block.Size, hotsetSpan * block.Size}
	rt := newRouter(ten, caps)
	var be core.Backend = rt
	if p.wrapBackend != nil {
		be = p.wrapBackend(be)
	}
	var tr *tracer
	if o.traced {
		tr = newTracer(ten)
		be = &tracedBackend{inner: be, tr: tr}
		r.tr = tr
	}
	tk := newTicker(hotsetStep)
	opts := hotsetOptions(true, tk)
	st, err := core.Open(be, opts)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	r.setupCfg = layerSetup{policy: "sieve", capacity: hotsetCacheBytes / block.Size / hotsetShards, shards: hotsetShards,
		sieveC: sieve.DefaultCConfig(), tierBytes: opts.RAMTierBytes}

	sh := newShadow([]uint64{hotsetSpan, hotsetSpan})
	cs := newZipfClients(p.seed, []opStore{st, st}, tenants, ten, hotsetSpan)
	ph := &phase{sh: sh, tk: tk, timeEvery: hotsetTimeEvery, tr: tr, traceEvery: hotsetTraceEvery, contains: st.Contains}
	ph.warm(cs, hotsetWarmRequests, r)
	if !full(st) {
		s := st.Stats()
		return nil, fmt.Errorf("hotset warm-up left the cache at %d of %d blocks with %d evictions", s.CachedBlocks, s.CapacityBlocks, s.Evictions)
	}
	r.setup = time.Since(t0)

	before := st.Stats()
	ph.record = o.traced
	r.beginMeasure()
	ph.measure(cs, requestsFor(p, hotsetRate), r)
	r.endMeasure()
	after := st.Stats()
	r.delta = subStats(after, before)
	r.layer["tenant.count"] = float64(after.Tenants)
	if o.scrape {
		r.layer["appliance.scrape_us"] = scrapeUS(st)
	}

	sh, ph.sh, cs = nil, nil, nil
	r.heap = liveHeap(p, rt, r)
	runtime.KeepAlive(st)
	return r, nil
}

// full reports whether every frame of the cache is in use and eviction
// has begun.
func full(st *core.Store) bool {
	s := st.Stats()
	return s.CachedBlocks >= s.CapacityBlocks && s.Evictions > 0
}

// metricsCost prices TrackLatency and TraceSample on the hot set. Two
// stores, one with them on and one with them off, serve the same request
// stream from one goroutine in alternating chunks (A B, then B A), so a
// change in the machine's speed cancels out of the difference. Both warm
// up as a hot-set round does and then measure a round's requests. It
// returns the on − off request time in ns, and the requests attempted and
// failed.
func metricsCost(p params) (float64, int64, int64, error) {
	type side struct {
		st  *core.Store
		tk  *ticker
		sh  *shadow
		ns  time.Duration
		ops int
	}
	ten := &tenantMap{}
	tenants := []int{ten.add(0, 0), ten.add(1, 0)}
	var sides [2]side
	for i := range sides {
		rt := newRouter(ten, []uint64{hotsetSpan * block.Size, hotsetSpan * block.Size})
		tk := newTicker(hotsetStep)
		st, err := core.Open(rt, hotsetOptions(i == 0, tk))
		if err != nil {
			return 0, 0, 0, err
		}
		defer st.Close()
		sides[i] = side{st: st, tk: tk, sh: newShadow([]uint64{hotsetSpan, hotsetSpan})}
	}
	type req struct {
		tenant int
		n      uint64
		write  bool
	}
	cs := newZipfClients(p.seed, []opStore{nil, nil}, tenants, ten, hotsetSpan)
	chunk := make([]req, 4096)
	buf := make([]byte, block.Size)
	var attempted, failed int64
	apply := func(s *side, timed bool) {
		t0 := time.Now()
		for _, q := range chunk {
			s.tk.n.Add(1)
			id, off := ten.ids[q.tenant], q.n*block.Size
			var err error
			if q.write {
				s.sh.write(buf, q.tenant, q.n)
				err = s.st.WriteAt(id[0], id[1], buf, off)
			} else if err = s.st.ReadAt(id[0], id[1], buf, off); err == nil && !s.sh.check(buf, q.tenant, q.n) {
				failed++
			}
			if err != nil {
				failed++
			}
			attempted++
		}
		if timed {
			s.ns += time.Since(t0)
			s.ops += len(chunk)
		}
	}
	warm, measured := int64(hotsetWarmRequests), requestsFor(p, hotsetRate)
	for k := int64(0); k*int64(len(chunk)) < warm+measured; k++ {
		for i := range chunk {
			c := cs[i%2]
			chunk[i] = req{tenant: c.tenant, n: c.zipf.Uint64(), write: c.rng.Intn(4) == 0}
		}
		timed := k*int64(len(chunk)) >= warm
		if timed && sides[0].ops == 0 && !(full(sides[0].st) && full(sides[1].st)) {
			return 0, 0, 0, errors.New("metrics-cost warm-up did not fill the caches")
		}
		first := k % 2
		apply(&sides[first], timed)
		apply(&sides[1-first], timed)
	}
	on := float64(sides[0].ns) / float64(sides[0].ops)
	off := float64(sides[1].ns) / float64(sides[1].ops)
	return on - off, attempted, failed, nil
}
