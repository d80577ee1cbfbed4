package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/appliance"
	"repro/internal/block"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sieve"
	"repro/internal/sieved"
	"repro/internal/tier"
)

// layerSetup is what the isolated layer replays need to know about the
// workload's store. A layer the store does not have is not replayed, and
// its metrics read 0.
type layerSetup struct {
	policy    string
	capacity  int // blocks per shard
	shards    int
	sieveC    sieve.CConfig // zero: no online sieve (SieveStore-D)
	tierBytes int64         // zero: no RAM tier
	accessLog bool          // SieveStore-D's access logger
}

// perLayer lists the traced run's metrics with their units, in print
// order. The package doc maps each to the end-to-end metric it should
// move.
var perLayer = []struct{ name, unit string }{
	{"workload.gen_s", "s"},
	{"core.read_hit_us.p50", "us"}, {"core.read_hit_us.p99", "us"},
	{"core.read_miss_us.p50", "us"}, {"core.read_miss_us.p99", "us"},
	{"core.write_us.p50", "us"}, {"core.write_us.p99", "us"},
	{"core.self_share", "ratio"},
	{"core.evictions_per_kacc", "count"}, {"core.coalesced_per_kacc", "count"},
	{"tier.read_share", "ratio"}, {"tier.promotions_per_kacc", "count"}, {"tier.invalidations_per_kacc", "count"},
	{"tier.lookup_ns", "ns"},
	{"cache.touch_ns", "ns"}, {"cache.insert_ns", "ns"},
	{"sieve.decide_ns", "ns"}, {"sieve.admit_share", "ratio"},
	{"sieved.logbatch_ns", "ns"}, {"sieved.rotate_ms.p50", "ms"}, {"sieved.rotate_ms.max", "ms"},
	{"sieved.moves_per_rotation", "count"}, {"sieved.select_overflow", "count"},
	{"tenant.count", "count"}, {"tenant.repartitions", "count"},
	{"metrics.observe_ns", "ns"}, {"metrics.cost_ns_per_op", "ns"},
	{"appliance.scrape_us", "us"}, {"appliance.v1_rtt_us", "us"}, {"appliance.v2_rtt_us", "us"}, {"appliance.wire_us", "us"},
	{"cluster.op_us", "us"}, {"cluster.node_us", "us"}, {"cluster.fanout", "ratio"},
	{"cluster.hinted", "count"}, {"cluster.fallthroughs", "count"},
	{"store.calls_per_op", "ratio"}, {"store.call_us", "us"}, {"store.busy_share", "ratio"},
	{"trace.overhead_share", "ratio"}, {"trace.leftover_share", "ratio"},
	{"trace.self_us.client", "us"}, {"trace.self_us.gateway", "us"}, {"trace.self_us.node", "us"}, {"trace.self_us.backend", "us"},
}

// runTraced makes an untraced round, a traced round and another
// untraced round (and for hotset the paired metrics-cost pass), replays
// the traced round's request stream through single layers, and reports
// the per-layer metrics.
func runTraced(p params) (resultOut, error) {
	w, err := lookup(p.workload)
	if err != nil {
		return resultOut{}, err
	}
	plain, err := w.round(p, roundOpts{scrape: true})
	if err != nil {
		return resultOut{}, fmt.Errorf("untraced round: %w", err)
	}
	p.held += plain.sampleBytes()
	traced, err := w.round(p, roundOpts{traced: true})
	if err != nil {
		return resultOut{}, fmt.Errorf("traced round: %w", err)
	}
	p.held += traced.sampleBytes()
	// The overhead compares the traced round with the untraced round
	// right after it, so the two are adjacent in time.
	after, err := w.round(p, roundOpts{})
	if err != nil {
		return resultOut{}, fmt.Errorf("untraced round after the traced one: %w", err)
	}
	m := map[string]float64{}
	for k, v := range plain.layer {
		m[k] = v
	}
	stats := plain.delta
	acc := float64(stats.Reads + stats.Writes)
	missed := acc - float64(stats.Hits())
	m["core.evictions_per_kacc"] = 1000 * per(float64(stats.Evictions), acc)
	m["core.coalesced_per_kacc"] = 1000 * per(float64(stats.CoalescedReads), acc)
	m["tier.read_share"] = per(float64(stats.TierHits), float64(stats.Reads))
	m["tier.promotions_per_kacc"] = 1000 * per(float64(stats.TierPromotions), acc)
	m["tier.invalidations_per_kacc"] = 1000 * per(float64(stats.TierInvalidations), acc)
	m["sieve.admit_share"] = per(float64(stats.AllocWrites), missed)
	m["sieved.moves_per_rotation"] = per(float64(stats.EpochMoves), float64(stats.Epochs))
	m["sieved.select_overflow"] = float64(stats.SelectOverflow)
	m["tenant.repartitions"] = float64(stats.TenantRepartitions)

	coreLevel := levelClient
	if p.workload == "gateway" {
		coreLevel = levelNode
	}
	tr := traced.tr
	b := tr.analyze(coreLevel)
	for name, ns := range map[string][]int64{"core.read_hit_us": b.coreHit, "core.read_miss_us": b.coreMiss, "core.write_us": b.coreWr} {
		l := summarize(ns)
		m[name+".p50"], m[name+".p99"] = l.p50, l.tail
	}
	m["core.self_share"] = 1 - per(b.coreBeNS, b.coreNS)
	if p.workload == "gateway" {
		m["appliance.v1_rtt_us"] = p50us(b.clientNS[0])
		m["appliance.v2_rtt_us"] = p50us(b.clientNS[1])
		m["appliance.wire_us"] = p50us(b.wireNS)
		m["cluster.op_us"] = p50us(b.levelNS[levelGateway])
		m["cluster.node_us"] = p50us(b.levelNS[levelNode])
		m["cluster.fanout"] = per(float64(traced.calls[levelNode]), float64(traced.calls[levelGateway]))
	}
	var ops int64
	var wall time.Duration
	for _, s := range traced.slices {
		ops += s.ops
		wall += s.elapsed
	}
	m["store.calls_per_op"] = per(float64(traced.calls[levelBackend]), float64(ops))
	m["store.call_us"] = per(float64(traced.busy[levelBackend]), float64(traced.calls[levelBackend])) / 1e3
	m["store.busy_share"] = per(float64(traced.busy[levelBackend]), float64(wall))
	m["trace.overhead_share"] = 1 - per(rate(traced), rate(after))
	m["trace.leftover_share"] = per(b.selfNS[levelClient], b.opNS)
	for l := 0; l < nLevels; l++ {
		m["trace.self_us."+levelNames[l]] = per(b.selfNS[l], float64(b.ops)) / 1e3
	}

	fmt.Printf("# workload %s traced run: %s\n", p.workload, b.describe())
	fmt.Printf("# spans recorded: client %d, gateway %d, node %d, backend %d\n",
		b.spanCnt[levelClient], b.spanCnt[levelGateway], b.spanCnt[levelNode], b.spanCnt[levelBackend])
	spans := filepath.Join(p.dir, fmt.Sprintf("spans-%s-%d.jsonl", p.workload, p.seed))
	if err := tr.write(spans); err != nil {
		return resultOut{}, err
	}
	fmt.Printf("# spans written to %s\n", spans)
	// The spans are written; drop them before the replays below.
	traced.tr, tr = nil, nil
	runtime.GC()

	attempted := plain.attempted + traced.attempted + after.attempted
	failed := plain.failed + traced.failed + after.failed
	if p.workload == "hotset" {
		cost, a, f, err := metricsCost(p)
		if err != nil {
			return resultOut{}, fmt.Errorf("metrics cost: %w", err)
		}
		m["metrics.cost_ns_per_op"] = cost
		attempted += a
		failed += f
	}
	if err := replayLayers(p, traced, m); err != nil {
		return resultOut{}, err
	}

	out := map[string]metricOut{}
	for _, l := range perLayer {
		out[l.name] = metricOut{m[l.name], l.unit}
		fmt.Printf("# %-28s %14.6f %s\n", l.name, m[l.name], l.unit)
	}
	return resultOut{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: out}, nil
}

func rate(r *roundResult) float64 {
	var v []float64
	for _, s := range r.slices {
		v = append(v, float64(s.ops)/s.elapsed.Seconds())
	}
	return median(v)
}

// clockCost is the mean cost of timing an empty interval, subtracted
// from each timed call.
func clockCost() float64 {
	const n = 1 << 16
	var sum time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sum += time.Since(t)
	}
	return float64(sum) / n
}

// replayLayers times single layers' public functions on the traced
// round's recorded request stream.
func replayLayers(p params, r *roundResult, m map[string]float64) error {
	ops := r.ops
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	cfg := r.setupCfg
	clk := clockCost()

	// Replacement engine: a hit on a resident block touches it; any
	// other hit, and an admitted miss, inserts. The stream is replayed
	// once untimed to reach the cache's steady state, then once timed.
	pol, err := cache.NewPolicy(cfg.policy, cfg.capacity*cfg.shards)
	if err != nil {
		return err
	}
	var tNS, iNS float64
	var tN, iN int
	for pass := 0; pass < 2; pass++ {
		for _, o := range ops {
			if o.miss && !o.admit {
				continue
			}
			for b := 0; b < int(o.n); b++ {
				k := o.key + block.Key(b)
				touch := !o.miss && pol.Contains(k)
				t := time.Now()
				if touch {
					pol.Touch(k)
				} else {
					pol.Insert(k)
				}
				d := float64(time.Since(t)) - clk
				switch {
				case pass == 0:
				case touch:
					tNS, tN = tNS+d, tN+1
				default:
					iNS, iN = iNS+d, iN+1
				}
			}
		}
	}
	m["cache.touch_ns"] = per(tNS, float64(tN))
	m["cache.insert_ns"] = per(iNS, float64(iN))

	if cfg.tierBytes > 0 {
		if err := replayTier(cfg, ops, m); err != nil {
			return err
		}
	}
	if cfg.sieveC.IMCTSize > 0 {
		if err := replaySieve(cfg, ops, m); err != nil {
			return err
		}
	}
	if cfg.accessLog {
		if err := replayLog(p, ops, m); err != nil {
			return err
		}
	}

	// Latency histogram on the recorded request latencies.
	lat := append(r.reads[:len(r.reads):len(r.reads)], r.writes...)
	lat = lat[:min(len(lat), obsCap)]
	var h metrics.Histogram
	runtime.GC() // keep the previous section's garbage out of the timing
	start := time.Now()
	for _, d := range lat {
		h.Observe(time.Duration(d))
	}
	m["metrics.observe_ns"] = per(float64(time.Since(start)), float64(len(lat)))
	return nil
}

// replayTier times the RAM tier's lookup: blocks that hit are inserted
// (as promotion would), then every read is looked up.
func replayTier(cfg layerSetup, ops []opRec, m map[string]float64) error {
	tc, err := tier.New(tier.Config{Bytes: cfg.tierBytes, Shards: cfg.shards})
	if err != nil {
		return err
	}
	data := make([]byte, block.Size)
	for _, o := range ops {
		if !o.miss && o.kind == kindRead && !tc.Contains(o.key) {
			tc.Insert(o.key, data)
		}
	}
	var reads []block.Key
	for _, o := range ops {
		if o.kind == kindRead {
			reads = append(reads, o.key)
		}
	}
	runtime.GC() // keep the previous section's garbage out of the timing
	start := time.Now()
	for _, k := range reads {
		tc.Lookup(k, data)
	}
	m["tier.lookup_ns"] = per(float64(time.Since(start)), float64(len(reads)))
	return nil
}

// replaySieve times the online sieve's decision on the miss stream.
func replaySieve(cfg layerSetup, ops []opRec, m map[string]float64) error {
	sv, err := sieve.NewC(cfg.sieveC)
	if err != nil {
		return err
	}
	runtime.GC() // keep the previous section's garbage out of the timing
	var decisions int
	start := time.Now()
	for _, o := range ops {
		if !o.miss {
			continue
		}
		for b := 0; b < int(o.n); b++ {
			sv.ShouldAllocateN(block.Access{Time: o.at, Key: o.key + block.Key(b), Kind: block.Kind(o.kind)}, 0)
		}
		decisions += int(o.n)
	}
	m["sieve.decide_ns"] = per(float64(time.Since(start)), float64(decisions))
	return nil
}

// replayLog times SieveStore-D's access log: one LogBatch per request.
// Keys are derived inside the timed loop rather than materialized per
// block: the ensemble stream expands to millions of blocks.
func replayLog(p params, ops []opRec, m map[string]float64) error {
	dir, err := os.MkdirTemp(p.dir, "logbatch-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lg, err := sieved.NewLogger(dir, sieved.DefaultPartitions)
	if err != nil {
		return err
	}
	keys := make([]block.Key, 0, 1<<16)
	runtime.GC() // keep the previous section's garbage out of the timing
	start := time.Now()
	for _, o := range ops {
		keys = keys[:0]
		for b := 0; b < int(o.n); b++ {
			keys = append(keys, o.key+block.Key(b))
		}
		if err := lg.LogBatch(keys); err != nil {
			lg.Close()
			return err
		}
	}
	m["sieved.logbatch_ns"] = per(float64(time.Since(start)), float64(len(ops)))
	return lg.Close()
}

// scrapeUS times GET /metrics on the store's observability handler: one
// scrape to register every series, then the median of ten.
func scrapeUS(st *core.Store) float64 {
	h := appliance.NewObservability(st).Handler()
	var us []float64
	for i := 0; i < 11; i++ {
		w := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
		if i > 0 {
			us = append(us, float64(time.Since(t))/1e3)
		}
	}
	return median(us)
}
