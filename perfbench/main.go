package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
)

// processStart anchors the first round's set-up time.
var processStart = time.Now()

// procs is the GOMAXPROCS a run uses. On one P the clients, the servers,
// the store's own goroutines and the collector take turns on one thread,
// so no request hands off to a thread parked on another vCPU. On a
// virtual machine such a wake-up costs an inter-processor interrupt and
// a hypervisor exit whose price depends on where the host placed the
// vCPUs. On a 2-vCPU AMD EPYC virtual machine, three ensemble runs
// (seeds 1–3) spread by 17% in p99 read latency with two Ps and by 6%
// with one, at the same throughput.
const procs = 1

// params is one invocation's configuration.
type params struct {
	workload string
	seed     int64
	seconds  float64
	// rounds is how many independent set-up + measure rounds one run
	// makes; set-up time is their median.
	rounds int
	// scale divides the ensemble trace (the paper's 1/2048 by default).
	scale int
	// dir holds the run's files (spill logs, span dumps), inside the
	// checkout.
	dir string
	// wrapBackend, if set, wraps the stand-in ensemble (self-tests).
	wrapBackend func(core.Backend) core.Backend
	// held is the heap the latency samples of the run's earlier rounds
	// take; a round's heap figure leaves them out.
	held int64
}

// roundOpts selects what one round does besides the plain measurement.
type roundOpts struct {
	traced bool // wrap every boundary and record spans
	scrape bool // time /metrics scrapes after the measured phase
}

// slice is one stretch of the measured phase: a trace day for ensemble,
// a fixed share of the round's requests for the closed-loop workloads.
// Rates are computed per slice and reported as the median over slices, so
// a disturbance of the host moves the slices it falls in, not the result.
type slice struct {
	ops     int64
	elapsed time.Duration
}

// obsCap bounds the latencies a traced round replays through the
// histogram.
const obsCap = 1 << 20

// roundResult is what one round measured.
type roundResult struct {
	setup         time.Duration
	slices        []slice
	reads, writes []int64    // timed request latencies of the measured phase, ns
	delta         core.Stats // store counters over the measured phase (summed over nodes)
	attempted     int64
	failed        int64
	heap          uint64             // live heap after GC with the benchmark's own data dropped
	layer         map[string]float64 // per-layer figures measured in the round
	tr            *tracer
	calls         [nLevels]int64 // traced calls per level in the measured phase
	busy          [nLevels]int64 // their summed time, ns
	ops           []opRec        // recorded request stream (traced rounds)
	setupCfg      layerSetup
}

// sampleBytes is the heap the round's latency samples take.
func (r *roundResult) sampleBytes() int64 { return 8 * int64(cap(r.reads)+cap(r.writes)) }

type workloadDef struct {
	why   string
	round func(p params, o roundOpts) (*roundResult, error)
	// timeEvery is the 1-in-N subset of requests whose latency is timed.
	timeEvery int
	// rounds is how many rounds a run makes. The host's speed drifts over
	// seconds, and each round also lays the store out in memory afresh,
	// so a closed-loop run spreads its fixed work over five short rounds;
	// the ensemble's replay is long enough in three.
	rounds int
}

var workloads = map[string]workloadDef{
	"ensemble": {why: "the paper's 8-day ensemble trace replayed through SieveStore-D: miss path, access logging, epoch rotation", round: ensembleRound, timeEvery: 1, rounds: 3},
	"hotset":   {why: "an appliance store under a Zipf hot set: hit path, RAM tier, shard locks, policy and histograms", round: hotsetRound, timeEvery: hotsetTimeEvery, rounds: 5},
	"gateway":  {why: "client to wire to cluster gateway to 3 nodes on loopback: framing, syscalls, routing, R=2 fan-out", round: gatewayRound, timeEvery: 1, rounds: 5},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload: ensemble, hotset or gateway")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed")
	flag.Float64Var(&p.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	runtime.GOMAXPROCS(procs)
	p.rounds, p.scale = workloads[p.workload].rounds, 2048
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	p.dir = filepath.Join(wd, ".bench_build", "run")
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		fatal(err)
	}
	printHost(p)
	var res resultOut
	if trace == 1 {
		res, err = runTraced(p)
	} else {
		res, err = runPlain(p)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

func lookup(name string) (workloadDef, error) {
	w, ok := workloads[name]
	if !ok {
		return w, fmt.Errorf("unknown workload %q (have ensemble, hotset, gateway)", name)
	}
	return w, nil
}

// runPlain makes the untraced rounds and derives the end-to-end metrics.
func runPlain(p params) (resultOut, error) {
	w, err := lookup(p.workload)
	if err != nil {
		return resultOut{}, err
	}
	if p.rounds < 1 {
		return resultOut{}, errors.New("rounds must be ≥1")
	}
	// Every round measures a fixed amount of work, sized from the run's
	// seconds, so the counts of a run do not depend on the program's speed.
	var rounds []*roundResult
	for i := 0; i < p.rounds; i++ {
		r, err := w.round(p, roundOpts{})
		if err != nil {
			return resultOut{}, fmt.Errorf("%s round %d: %w", p.workload, i, err)
		}
		rounds = append(rounds, r)
		p.held += r.sampleBytes()
	}
	e := endToEnd(rounds)
	fmt.Printf("# workload %s: %s\n", p.workload, w.why)
	fmt.Printf("# closed loop; latency timed on 1 in %d requests\n", w.timeEvery)
	for i, r := range rounds {
		fmt.Printf("# round %d: setup %.3f s, %d slices, median %.0f requests/s; slices (k/s):", i, r.setup.Seconds(), len(r.slices), rate(r))
		for _, s := range r.slices {
			fmt.Printf(" %.0f", float64(s.ops)/s.elapsed.Seconds()/1e3)
		}
		fmt.Println()
	}
	e.print()
	m := map[string]metricOut{}
	for _, k := range e.order {
		m[k] = metricOut{e.values[k], e.units[k]}
	}
	return resultOut{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: m}, nil
}

// e2e holds the end-to-end metrics of a run.
type e2e struct {
	order             []string
	values            map[string]float64
	units             map[string]string
	attempted, failed int64
	read, write       latency
	nSlices           int
}

func (e *e2e) set(name, unit string, v float64) {
	e.order = append(e.order, name)
	e.values[name] = v
	e.units[name] = unit
}

func (e *e2e) print() {
	for _, k := range e.order {
		fmt.Printf("# %-24s %14.6f %s\n", k, e.values[k], e.units[k])
	}
	fmt.Printf("# failed_share             %14.6f (failed %d of %d attempted)\n", per(float64(e.failed), float64(e.attempted)), e.failed, e.attempted)
	fmt.Printf("# latency samples, pooled over rounds: read %d (tail p%.2f), write %d (tail p%.2f); rates over %d slices\n",
		e.read.n, 100*e.read.tailQ, e.write.n, 100*e.write.tailQ, e.nSlices)
}

// endToEnd derives the end-to-end metrics: rates are medians over the
// slices of all rounds, latency percentiles come from the samples of all
// rounds pooled, counters are summed over rounds.
func endToEnd(rounds []*roundResult) e2e {
	e := e2e{values: map[string]float64{}, units: map[string]string{}}
	var rates, setups, heaps []float64
	var reads, writes []int64
	var d core.Stats
	for _, r := range rounds {
		for _, s := range r.slices {
			rates = append(rates, float64(s.ops)/s.elapsed.Seconds())
		}
		e.nSlices += len(r.slices)
		reads, writes = append(reads, r.reads...), append(writes, r.writes...)
		setups = append(setups, r.setup.Seconds())
		heaps = append(heaps, float64(r.heap)/(1<<20))
		addStats(&d, r.delta)
		e.attempted += r.attempted
		e.failed += r.failed
	}
	e.read, e.write = summarize(reads), summarize(writes)
	acc := float64(d.Reads + d.Writes)
	e.set("ops_per_s", "1/s", median(rates))
	e.set("read_p50_us", "us", e.read.p50)
	e.set("read_p99_us", "us", e.read.tail)
	e.set("write_p50_us", "us", e.write.p50)
	e.set("write_p99_us", "us", e.write.tail)
	e.set("hit_ratio", "ratio", per(float64(d.Hits()), acc))
	e.set("alloc_writes_per_kacc", "count", 1000*per(float64(d.AllocWrites+d.EpochMoves), acc))
	e.set("backend_ios_per_kacc", "count", 1000*per(float64(d.BackendReads+d.BackendWrites), acc))
	e.set("setup_s", "s", median(setups))
	e.set("heap_mb", "MiB", median(heaps))
	return e
}

// addStats sums the counters the benchmark reads.
func addStats(d *core.Stats, s core.Stats) {
	d.Reads += s.Reads
	d.Writes += s.Writes
	d.ReadHits += s.ReadHits
	d.WriteHits += s.WriteHits
	d.AllocWrites += s.AllocWrites
	d.Evictions += s.Evictions
	d.EpochMoves += s.EpochMoves
	d.Epochs += s.Epochs
	d.BackendReads += s.BackendReads
	d.BackendWrites += s.BackendWrites
	d.FlushWrites += s.FlushWrites
	d.CoalescedReads += s.CoalescedReads
	d.SelectOverflow += s.SelectOverflow
	d.TierHits += s.TierHits
	d.TierPromotions += s.TierPromotions
	d.TierInvalidations += s.TierInvalidations
	d.TenantRepartitions += s.TenantRepartitions
}

// subStats returns the counter deltas b − a; gauges come from b.
func subStats(b, a core.Stats) core.Stats {
	d := b
	d.Reads -= a.Reads
	d.Writes -= a.Writes
	d.ReadHits -= a.ReadHits
	d.WriteHits -= a.WriteHits
	d.AllocWrites -= a.AllocWrites
	d.Evictions -= a.Evictions
	d.EpochMoves -= a.EpochMoves
	d.Epochs -= a.Epochs
	d.BackendReads -= a.BackendReads
	d.BackendWrites -= a.BackendWrites
	d.FlushWrites -= a.FlushWrites
	d.CoalescedReads -= a.CoalescedReads
	d.SelectOverflow -= a.SelectOverflow
	d.TierHits -= a.TierHits
	d.TierPromotions -= a.TierPromotions
	d.TierInvalidations -= a.TierInvalidations
	d.TenantRepartitions -= a.TenantRepartitions
	return d
}

// liveHeap forces a collection and returns the live heap less the
// stand-in ensemble and the latency samples the run holds (this round's
// and, through p.held, earlier rounds'). Callers drop their references to
// the benchmark's own trace and shadow first, so what remains is the
// program's.
func liveHeap(p params, rt *router, r *roundResult) uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc - uint64(rt.bytes()+p.held+r.sampleBytes())
}
