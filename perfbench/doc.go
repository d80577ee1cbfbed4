// Command perfbench is the repository's one benchmark. It drives the
// public APIs of the SieveStore packages, checks every byte it reads,
// and prints each metric by name and unit; the last line of its output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"ops_per_s": {"value": …, "unit": "1/s"}, …}}
//
// Run it from the root of the repository with
//
//	bash perfbench/run.sh --workload <ensemble|hotset|gateway> --seed <n> --seconds <s> --trace <0|1>
//
// which builds it into .bench_build/ and runs it there. --trace 0 reports
// the end-to-end metrics from runs with no wrappers; --trace 1 makes a
// separate traced run and reports the per-layer metrics. BENCHMARK.json at
// the root lists both sets with their bounds. Self-tests: go test in this
// directory.
//
// # Workloads
//
// All workloads are closed loops: each client issues its next request
// only when the last one has returned, as a storage server's block layer
// does. The load comes from this one process with at most two client
// goroutines, and the whole process runs with GOMAXPROCS 1: clients,
// servers, the store's own goroutines and the collector take turns on
// one thread, so no request waits for a thread parked on the other vCPU
// to be woken. On a virtual machine that wake-up costs an interrupt and a
// hypervisor exit whose price moves with the host's placement of the
// vCPUs: with two Ps, three ensemble runs spread by 17% in p99 read
// latency, against 6% with one. The price of this choice is that the
// benchmark does not see multi-core scaling (on a 2-vCPU machine two
// in-process clients were no faster than one anyway). The seed selects
// the generated requests; the program sees only those. A run makes
// three rounds of ensemble or five of hotset or gateway; a round sets up
// from scratch, warms up to the steady state below, and then measures a
// fixed amount of work: the ensemble's days 1–7, or for the closed-loop
// workloads a fixed number of requests (the run's seconds ÷ 5 × a
// nominal rate: 1.2 M/s for hotset, 65 k/s for gateway). Counts per
// access therefore do not depend on how fast the program serves the
// requests. The rounds are short and many because the host's speed
// drifts over seconds and each round lays the store out in memory
// afresh; the figures take the middle of them.
//
//   - ensemble: the paper's own traffic. workload.Default (13 servers, 36
//     volumes) at scale 1/2048 for 8 days, about 1.74 M requests, 26% of
//     them writes, replayed in trace order by one goroutine through a
//     SieveStore-D core.Store (threshold 10, an epoch rotation at each day
//     boundary, 8 MiB cache, LRU, 1 shard, tenant tracking on, quotas off,
//     latency tracking on) whose clock follows trace time. Day 0 is the
//     warm-up; days 1–7 are measured, one slice per day, rotation
//     included. Why: the working set is far larger than the cache (hit
//     ratio about 0.13), so the miss path, access logging, epoch rotation
//     and backend fetch do most of the work and the tier and wire none.
//     Its counts repeat exactly for a seed, so an admission change shows
//     as a count, not as noise. Quotas stay off: they cut this workload's
//     hit ratio from 0.130 to 0.086, a QoS policy choice rather than the
//     paper's shared cache.
//   - hotset: a production-shaped appliance store driven in process. Two
//     goroutines, each with its own tenant (server i, volume 0), draw
//     one-block requests Zipf(1.1) over 262,144 blocks (16× the cache),
//     3 reads to 1 write. SieveStore-C with the default sieve, SIEVE
//     policy, 8 shards, 8 MiB cache, a RAM tier of 5% of the cache,
//     latency tracking on, trace sampling 1 in 64, tenant tracking on,
//     write-through. The store's clock advances by a fixed step per
//     request issued, so the sieve's 8 h miss window spans 1.5 M requests
//     however fast they are served (on the wall clock it would never turn
//     over in a run, and admissions per request would keep rising). The
//     store's other timers run on that clock too: the tenant accountant's
//     one-minute repartition comes every 3,125 requests. The
//     warm-up is 4.5 M requests: the cache fills after about 3.5 M, and by
//     then the window has turned over, so hit ratio and admission rate
//     are steady; a round whose warm-up leaves the cache short of full and
//     evicting fails.
//     Why: about 84% of block accesses hit and 39% of reads come from the
//     RAM tier, so the hit path, tier probe, shard locks, policy touch and
//     latency histograms dominate, and the backend and wire do almost
//     nothing. Writes make tier invalidation and write-through pay their
//     share; two clients share the same shard locks (on one P they take
//     turns, so they meet on a lock only across a preemption). Only 1 in 16
//     requests is timed (hotsetTimeEvery), to keep clock reads off a
//     sub-microsecond path.
//   - gateway: the whole chain on loopback: client → wire → gateway
//     appliance.Server over a cluster.Client → 3 node appliance.Servers
//     over write-back SieveStore-C core.Stores (sieve thresholds 1/1) → one
//     stand-in ensemble. N=3 nodes, R=2 replicas, write quorum W=1. Two
//     goroutines, each with its own tenant, one on a protocol v1
//     connection and one on v2, draw Zipf(1.1) over 4,096 blocks, 3:1.
//     Warm-up writes and then reads every block, so the whole span is
//     resident. Why: framing, syscalls, routing and the R=2 write fan-out
//     do most of the work and core does little; the v1 client beside the
//     v2 client keeps both server loops loaded. On one P the two clients'
//     requests interleave, so each client's round trip includes the
//     other's service: appliance.v1_rtt_us and appliance.v2_rtt_us move
//     together, and a change to one protocol's path shows in both and in
//     ops_per_s rather than in its own figure alone.
//
// The stand-in ensemble gives every (server, volume) its own disk with its
// own lock, so two tenants' backend I/O never serializes on one lock as it
// would on one shared store.Mem. A disk keeps a block holding one of the
// benchmark's stamps as its 4-byte version and any other content
// verbatim, so a read returns exactly the bytes last written while the
// ensemble trace's scattered writes stay in tens of MiB (store.Mem keeps a
// 64 KiB extent per touched extent: gigabytes here).
//
// # Read verification
//
// Every write carries a stamp naming its tenant, block and version; every
// read is checked against the benchmark's shadow of its own writes, and a
// block never written must read as zero. gateway also flushes through the
// wire at the end of each round and reads the ensemble itself back. A
// request that returns an error or wrong bytes counts in failed; any
// failure makes the run's correct false and its exit status 1.
//
// # End-to-end metrics (--trace 0)
//
// Rates are computed per slice (a seventh of a round's requests for hotset
// and gateway, one trace day for ensemble) and reported as the median over
// all slices of all rounds, so a disturbance of the host moves the slices
// it falls in, not the result. Latency percentiles come from the timed
// requests of all rounds pooled. The sample counts and the tail
// percentile used are printed with the run.
//
//   - ops_per_s: completed client requests per second of measured wall
//     time. For ensemble that time includes the daily RotateEpoch calls.
//   - read_p50_us, read_p99_us, write_p50_us, write_p99_us: per-request
//     latency of the store call (ensemble, hotset) or client call
//     (gateway); the tail is p99, or the highest percentile with at least
//     10 samples beyond it.
//   - hit_ratio: block hits ÷ block accesses from core.Stats, summed over
//     nodes for gateway — the paper's "accesses captured".
//   - alloc_writes_per_kacc: (AllocWrites + EpochMoves) per 1,000 block
//     accesses, the SSD wear of the paper's Fig. 6.
//   - backend_ios_per_kacc: (BackendReads + BackendWrites) per 1,000 block
//     accesses, the load left on the disk ensemble.
//   - setup_s: time from the start of a round (of the process, for the
//     first) to its first measured request — trace generation, store or
//     ring start, warm-up — median over rounds.
//   - heap_mb: live Go heap after a forced GC at the end of a round, with
//     the benchmark's own trace, shadow and samples dropped and the
//     stand-in ensemble subtracted; median over rounds.
//   - failed_share: failed ÷ attempted. It is printed with the run and is
//     the result's failed and attempted fields; it is not a metric of
//     BENCHMARK.json, whose metrics must never be 0.
//
// The counters cover the measured phase, except on gateway: there the
// whole span is resident in steady state, so over the measured phase
// alone the nodes would allocate and write back nothing. On gateway the
// counters cover the ring's life in the round — warm-up sweep, measured
// phase and the final flush. Both phases are a fixed number of requests,
// so these figures do not move with the request rate.
//
// # Per-layer metrics (--trace 1)
//
// The traced run makes an untraced round, a traced round and another
// untraced round, then replays the traced round's recorded request
// stream through single layers' public functions. Counters and scrape
// times come from the first untraced round; trace.overhead_share is
// 1 − traced ops_per_s ÷ that of the untraced round right after it. On
// hotset it also prices latency tracking: two stores, one with
// TrackLatency and TraceSample on and one with them off, serve the same
// request stream from one goroutine in alternating chunks (A B, then
// B A), so a change in the machine's speed cancels out of the
// difference. In the traced round the benchmark wraps, from outside the
// program, every core.Backend under a store and every appliance.BlockStore
// under a server; the BlockStore wrapper forwards every method, ReadPinned
// and the vector calls included, so the server keeps its zero-copy path.
// Spans are kept in memory and written to
// .bench_build/run/spans-<workload>-<seed>.jsonl at the end, one JSON
// array per span: [level, tenant, request, kind (0 read, 1 write),
// offset, start ns, end ns]. The request id is the client's sequence
// number: no interface carries it, but each client owns its tenant and
// has one request in flight, so the wrappers take it from a per-tenant
// slot. Levels are client op → gateway BlockStore → node BlockStore →
// Backend; in-process workloads have only client op → Backend. The
// analysis matches a child span to its parent by tenant and time
// containment. For each client op, U(l) is
// the time at least one span of level l or deeper is active; level l's
// self time is U(l) − U(l+1). The self times (trace.self_us.*) sum to the
// op time; trace.leftover_share is the client level's part, the time no
// inner span accounts for. Spans are kept for 1 in 4 ensemble requests,
// 1 in 16 hotset requests and every gateway request; calls are counted
// and timed at every boundary regardless. A metric of a layer a workload
// does not use reads 0: the isolated replays run only for layers the
// workload's store has (tier: hotset; sieve: hotset and gateway, where it
// reads 0 because no measured request misses; access log: ensemble).
//
//	layer     metric                                   measured by                                        should move                     works in / flat in
//	workload  workload.gen_s                           timing workload.New + Generator.Day                setup_s                         ensemble / unused elsewhere
//	core      core.read_hit_us.p50/.p99                core read spans with no backend span inside        read_p50_us, ops_per_s          hotset / small share of ensemble
//	core      core.read_miss_us.p50/.p99               core read spans with a backend span inside         read_p99_us, ops_per_s          ensemble / rare in hotset
//	core      core.write_us.p50/.p99                   core write spans                                   write_p50_us                    hotset, ensemble
//	core      core.self_share                          1 − backend time ÷ core call time                  ops_per_s                       all
//	core      core.evictions_per_kacc, .coalesced_…    Stats deltas per 1,000 accesses                    hit_ratio, alloc_writes_per_kacc hotset, ensemble
//	tier      tier.read_share, .promotions_per_kacc,   Stats deltas (TierHits ÷ Reads, …)                 read_p50_us                     hotset / zero elsewhere (tier off)
//	          .invalidations_per_kacc
//	tier      tier.lookup_ns                           tier.Cache.Lookup on the recorded read keys        read_p50_us                     hotset
//	cache     cache.touch_ns, cache.insert_ns          the workload's cache.NewPolicy engine on the       read_p50_us (hotset),           hotset, ensemble
//	                                                   recorded hit/admit stream                          ops_per_s (ensemble)
//	sieve     sieve.decide_ns                          sieve.C.ShouldAllocateN on the recorded misses     ops_per_s                       hotset / unused in ensemble (D)
//	sieve     sieve.admit_share                        AllocWrites ÷ missed blocks                        hit_ratio, alloc_writes_per_kacc hotset
//	sieved    sieved.logbatch_ns                       sieved.Logger.LogBatch per recorded request        ops_per_s                       ensemble / unused elsewhere
//	sieved    sieved.rotate_ms.p50/.max                timing each RotateEpoch of the replay              ops_per_s, read_p99_us          ensemble
//	sieved    sieved.moves_per_rotation,               Stats deltas                                       alloc_writes_per_kacc, hit_ratio ensemble
//	          sieved.select_overflow
//	tenant    tenant.count, tenant.repartitions        Stats                                              ops_per_s                       ensemble (36) vs hotset (2)
//	metrics   metrics.observe_ns                       metrics.Histogram.Observe on recorded latencies    ops_per_s                       hotset
//	metrics   metrics.cost_ns_per_op                   request time with TrackLatency/TraceSample on      ops_per_s, read_p50_us          hotset
//	                                                   minus off, paired chunks of one request stream
//	appliance appliance.scrape_us                      GET /metrics via NewObservability(st).Handler()    none here (no scrape while      ensemble vs hotset
//	                                                   after the measured phase, median of 10             measuring)
//	appliance appliance.v1_rtt_us, .v2_rtt_us          client op spans per connection                     read_p50_us, write_p99_us,      gateway / absent elsewhere
//	                                                                                                      ops_per_s
//	appliance appliance.wire_us                        client op time − gateway BlockStore time           same                            gateway
//	cluster   cluster.op_us                            gateway BlockStore spans around cluster.Client     read_p50_us, write_p50_us       gateway
//	cluster   cluster.node_us                          node BlockStore spans around each core.Store       same                            gateway
//	cluster   cluster.fanout                           node calls ÷ gateway calls (≈1 read, ≈2 write)     write_p50_us                    gateway
//	cluster   cluster.hinted, cluster.fallthroughs     ClusterStats deltas (0 when healthy)               failed, read_p99_us             gateway
//	store     store.calls_per_op, store.call_us,       the Backend wrapper (busy = call time ÷ wall       ops_per_s, backend_ios_per_kacc ensemble / write-through only
//	          store.busy_share                         time; above 1 when calls overlap)                                                  in hotset
//	trace     trace.self_us.{client,gateway,node,      blocking-path self time per client op, the         every metric of its level       all
//	          backend}, trace.leftover_share,          client level's share, and 1 − traced ÷ untraced
//	          trace.overhead_share                     ops_per_s
//
// The isolated replays time each call with the mean cost of an empty
// timed interval subtracted (cache), or time a whole batch (tier, sieve,
// sieved, metrics). The recorded stream marks a read as a miss when it
// reached the backend, and a write as a miss when a block it wrote was not
// resident before it (write-through writes always reach the backend).
// cache.touch_ns and cache.insert_ns replay the stream once untimed and
// once timed: a hit on a block the replay holds touches it, any other hit
// and an admitted miss insert. The RAM-tier replay inserts every block
// that hit and then looks up every read.
//
// Every run prints a host record: seed, CPU model, nproc, GOMAXPROCS, Go
// version and the commit it was built from.
package main
