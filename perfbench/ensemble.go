package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ensembleTraceEvery is the 1-in-N subset of ensemble requests the traced
// run records spans for (every request is still counted and timed).
const ensembleTraceEvery = 4

// firstRound makes the first round's set-up time run from process start.
var firstRound = true

func roundStart() time.Time {
	if firstRound {
		firstRound = false
		return processStart
	}
	return time.Now()
}

// ensembleRound generates the paper's ensemble trace, replays day 0 as
// warm-up and measures days 1–7, one slice per day. A slice's time
// includes that day's epoch rotation.
func ensembleRound(p params, o roundOpts) (*roundResult, error) {
	t0 := roundStart()
	r := &roundResult{layer: map[string]float64{}}

	g0 := time.Now()
	cfg, days, err := ensembleTrace(p.seed, p.scale)
	if err != nil {
		return nil, err
	}
	r.layer["workload.gen_s"] = time.Since(g0).Seconds()

	ten := &tenantMap{}
	var caps, blocks []uint64
	for s, sp := range cfg.Servers {
		// The volume sizes of replay.BuildBackend, slack included.
		perVol := uint64(sp.CapacityGB*(1<<30)/float64(cfg.Scale)) / uint64(sp.Volumes)
		perVol = perVol/block.Size*block.Size + 1<<20
		for v := 0; v < sp.Volumes; v++ {
			ten.add(s, v)
			caps = append(caps, perVol)
			blocks = append(blocks, perVol/block.Size)
		}
	}
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
	spill, err := os.MkdirTemp(p.dir, "spill-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spill)
	clk := replay.NewClock(time.Date(2008, 2, 22, 0, 0, 0, 0, time.UTC))
	cacheBytes := int64(16<<30) / int64(p.scale)
	st, err := core.Open(be, core.Options{
		CacheBytes:     cacheBytes,
		Shards:         1,
		Policy:         "lru",
		Variant:        core.VariantD,
		DThreshold:     10,
		TenantTracking: true,
		TrackLatency:   true,
		Now:            clk.Now,
		SpillDir:       spill,
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	r.setupCfg = layerSetup{policy: "lru", capacity: int(cacheBytes / block.Size), shards: 1, accessLog: true}
	sh := newShadow(blocks)
	rp := &ensembleReplay{st: st, ten: ten, sh: sh, tr: tr, record: o.traced}

	var rotations []float64
	rotate := func(d int) error {
		clk.Set(int64(d+1) * trace.Day)
		t := time.Now()
		if err := st.RotateEpoch(); err != nil {
			return fmt.Errorf("rotate after day %d: %w", d, err)
		}
		rotations = append(rotations, float64(time.Since(t))/1e6)
		return nil
	}
	if err := rp.day(days[0], clk, false); err != nil {
		return nil, err
	}
	if err := rotate(0); err != nil {
		return nil, err
	}
	rotations = rotations[:0]
	r.setup = time.Since(t0)

	before := st.Stats()
	r.beginMeasure()
	for d := 1; d < cfg.Days; d++ {
		start := time.Now()
		if err := rp.day(days[d], clk, true); err != nil {
			return nil, err
		}
		if err := rotate(d); err != nil {
			return nil, err
		}
		r.slices = append(r.slices, slice{ops: int64(len(days[d])), elapsed: time.Since(start)})
	}
	r.endMeasure()
	after := st.Stats()
	r.delta = subStats(after, before)
	r.attempted, r.failed, r.ops = rp.attempted, rp.failed, rp.recs
	r.reads, r.writes = rp.reads, rp.writes
	r.layer["sieved.rotate_ms.p50"] = median(rotations)
	r.layer["sieved.rotate_ms.max"] = maxOf(rotations)
	r.layer["tenant.count"] = float64(after.Tenants)
	if o.scrape {
		r.layer["appliance.scrape_us"] = scrapeUS(st)
	}

	days, sh, rp.sh, rp.recs, rp.reads, rp.writes = nil, nil, nil, nil, nil, nil
	r.heap = liveHeap(p, rt, r)
	runtime.KeepAlive(st)
	return r, nil
}

// ensembleTrace generates the paper's 13-server, 36-volume, 8-day
// ensemble trace at 1/scale from the workload seed.
func ensembleTrace(seed int64, scale int) (workload.Config, [][]block.Request, error) {
	cfg := workload.Default(scale)
	cfg.Seed = seed
	gen, err := workload.New(cfg)
	if err != nil {
		return cfg, nil, err
	}
	days := make([][]block.Request, cfg.Days)
	for d := range days {
		if days[d], err = gen.Day(d); err != nil {
			return cfg, nil, err
		}
	}
	return cfg, days, nil
}

// ensembleReplay issues trace requests in order, one at a time, with the
// store's clock following trace time.
type ensembleReplay struct {
	st                *core.Store
	ten               *tenantMap
	sh                *shadow
	tr                *tracer
	record            bool
	buf               []byte
	seq               int64
	attempted, failed int64
	reads, writes     []int64 // latencies of the measured days, ns
	recs              []opRec
}

// day replays one day's requests; measured days have their latencies
// kept and, in a traced round, their requests recorded.
func (rp *ensembleReplay) day(reqs []block.Request, clk *replay.Clock, measured bool) error {
	for i := range reqs {
		req := &reqs[i]
		clk.Set(req.Time)
		// Requests are aligned outward to whole blocks, as replay.Run does.
		off := req.Offset / block.Size * block.Size
		end := (req.End() + block.Size - 1) / block.Size * block.Size
		if end == off {
			end = off + block.Size
		}
		n := int(end - off)
		if cap(rp.buf) < n {
			rp.buf = make([]byte, n)
		}
		b := rp.buf[:n]
		t := rp.ten.of(req.Server, req.Volume)
		first := off / block.Size
		if t < 0 || first+uint64(n/block.Size) > uint64(len(rp.sh.vers[t])) {
			return fmt.Errorf("request outside the stand-in ensemble: %+v", *req)
		}
		write := req.Kind == block.Write
		if write {
			rp.sh.write(b, t, first)
		}
		rp.seq++
		traced := rp.tr != nil && rp.seq%ensembleTraceEvery == 0
		record := rp.record && measured && len(rp.recs) < 4*recCap
		var beBefore, s0 int64
		resident := true
		if record {
			beBefore = rp.tr.backendByTenant[t].Load()
			for b := uint64(0); write && resident && b < uint64(n/block.Size); b++ {
				resident = rp.st.Contains(req.Server, req.Volume, off+b*block.Size)
			}
		}
		if traced {
			rp.tr.req[t].Store(rp.seq)
			s0 = rp.tr.now()
		}
		kind := kindRead
		start := time.Now()
		var err error
		if write {
			kind = kindWrite
			err = rp.st.WriteAt(req.Server, req.Volume, b, off)
		} else {
			err = rp.st.ReadAt(req.Server, req.Volume, b, off)
		}
		lat := int64(time.Since(start))
		if traced {
			rp.tr.record(levelClient, req.Server, req.Volume, off, kind, s0)
			rp.tr.req[t].Store(0)
		}
		if measured {
			if write {
				rp.writes = append(rp.writes, lat)
			} else {
				rp.reads = append(rp.reads, lat)
			}
		}
		rp.attempted++
		if err != nil || (!write && !rp.sh.check(b, t, first)) {
			rp.failed++
		}
		if record {
			rec := opRec{at: req.Time, key: block.MakeKey(req.Server, req.Volume, first), n: uint16(n / block.Size), kind: kind}
			if write {
				rec.miss = !resident
			} else {
				rec.miss = rp.tr.backendByTenant[t].Load() != beBefore
			}
			rp.recs = append(rp.recs, rec)
		}
	}
	return nil
}
