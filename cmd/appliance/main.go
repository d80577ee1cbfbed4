// Command appliance runs SieveStore as a standalone TCP block-caching
// appliance daemon (the paper's deployment model, Figure 4): block I/O from
// ensemble servers arrives over the wire, popular blocks are served from
// the cache, everything else is forwarded to the backing store.
//
// The demo backend is the in-memory ensemble; swapping in a real backend
// means implementing core.Backend. The cache survives restarts via a
// snapshot written on SIGINT/SIGTERM and loaded at boot.
//
// Usage:
//
//	appliance -listen :9000 -cache-mb 64 -servers 4 -volume-mb 1024
//	appliance -listen :9000 -policy sieve -shards 8
//	appliance -listen :9000 -variant d -epoch 24h -snapshot /var/lib/sieve.snap
//	appliance -listen :9000 -shards 8 -pprof 127.0.0.1:6060 -mutex-profile-fraction 5
//	appliance -listen :9000 -backend-timeout 2s -retries 3 -max-conns 256 -idle-timeout 5m
//	appliance -listen :9000 -metrics 127.0.0.1:9100 -trace-sample 64
//	appliance -listen :9000 -ram-tier-mb 4 -tier-promote-hits 2
//	appliance -listen :9000 -variant d -ram-tier-mb 4 -tier-autotune -tier-min-mb 1 -tier-max-mb 16
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // handlers on DefaultServeMux; only served when -pprof is set
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/appliance"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/resilience"
	"repro/internal/sieve"
	"repro/internal/store"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("appliance: ")
	var (
		listen    = flag.String("listen", "127.0.0.1:9000", "TCP listen address")
		cacheMB   = flag.Int64("cache-mb", 64, "cache size in MiB")
		variant   = flag.String("variant", "c", "sieve variant: c or d")
		policy    = flag.String("policy", "lru", "cache eviction policy: lru, sieve, s3fifo, fifo, or clock")
		epoch     = flag.Duration("epoch", 24*time.Hour, "SieveStore-D epoch length")
		threshold = flag.Int64("threshold", 10, "SieveStore-D epoch access-count threshold")
		writeBack = flag.Bool("writeback", false, "enable write-back caching")
		snapshot  = flag.String("snapshot", "", "snapshot file: loaded at boot if present, written on shutdown")
		spillDir  = flag.String("spill", "", "SieveStore-D spill directory (resumed across restarts)")
		servers   = flag.Int("servers", 4, "demo backend: number of servers")
		volumeMB  = flag.Int64("volume-mb", 1024, "demo backend: per-server volume size in MiB")
		dataDir   = flag.String("data", "", "back volumes with sparse files under this directory (empty: in-memory)")
		statsEach = flag.Duration("stats", time.Minute, "stats logging interval (0 disables)")
		trackLat  = flag.Bool("track-latency", true, "record per-op read/write service times (reported in stats)")
		shards    = flag.Int("shards", 0, "store lock shards, power of two (0: one per CPU)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (empty: disabled)")

		metricsAddr = flag.String("metrics", "", "serve /metrics (Prometheus), /statusz (JSON), and /debug/ops on this address (empty: disabled)")
		traceSample = flag.Int("trace-sample", 0, "sample one in N operations into the /debug/ops lifecycle trace ring (0: off)")
		traceRing   = flag.Int("trace-ring", 256, "sampled-op trace ring size")
		mutexFrac   = flag.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction rate for /debug/pprof/mutex (0: off)")

		backendTimeout = flag.Duration("backend-timeout", 0, "deadline per backend request attempt (0: none; enables the fault-tolerant backend wrapper)")
		retries        = flag.Int("retries", 0, "retries per backend op on transient errors (0: none; enables the fault-tolerant backend wrapper)")
		maxConns       = flag.Int("max-conns", 0, "cap on concurrently served connections; extras get a busy error (0: unlimited)")
		idleTimeout    = flag.Duration("idle-timeout", 0, "drop connections idle this long between requests (0: never)")

		tenantTrack       = flag.Bool("tenant-track", false, "per-tenant (server, volume) accounting: occupancy, hit ratios, alloc-writes (observe-only)")
		tenantQuotas      = flag.Bool("tenant-quotas", false, "enforce per-tenant soft capacity quotas, repartitioned by realized reuse (implies -tenant-track)")
		enduranceMBPerDay = flag.Int64("endurance-mb-per-day", 0, "SSD endurance envelope in MiB/day, split across tenants as per-tenant alloc-write token buckets (0: off; implies -tenant-track)")
		repartitionEvery  = flag.Duration("tenant-repartition-every", 0, "time-driven quota repartition interval (0: default 1m; negative: epoch boundaries only)")

		ramTierMB    = flag.Int64("ram-tier-mb", 0, "in-process RAM hot tier above the SSD cache, in MiB (0: disabled)")
		promoteHits  = flag.Int("tier-promote-hits", 0, "repeated SSD read hits before a block is promoted to the RAM tier (0: default)")
		tierAutotune = flag.Bool("tier-autotune", false, "resize the RAM tier at epoch boundaries per the cost advisor (variant d only)")
		tierMinMB    = flag.Int64("tier-min-mb", 0, "autotune lower bound for the RAM tier, in MiB (0: default)")
		tierMaxMB    = flag.Int64("tier-max-mb", 0, "autotune upper bound for the RAM tier, in MiB (0: cache size)")

		protocol    = flag.String("protocol", "v2", "max wire protocol version: v2 (tagged pipelined frames, negotiated down per client) or v1 (legacy-exact)")
		groupCommit = flag.Duration("group-commit-window", 0, "coalesce write-back flush requests arriving within this window into one backend sweep (0: flush immediately)")
		maxPipeline = flag.Int("max-pipeline", 0, "per-connection cap on in-flight pipelined v2 requests (0: default 32)")

		clusterPeers       = flag.String("cluster-peers", "", "comma-separated appliance addresses: run as a replicated-cluster gateway over these nodes instead of a local store")
		clusterReplicas    = flag.Int("cluster-replicas", 2, "gateway: replicas per block (R)")
		clusterQuorum      = flag.Int("cluster-write-quorum", 1, "gateway: direct acks required per write (W, ≤ R)")
		clusterWriteBack   = flag.Bool("cluster-writeback", false, "gateway: peers run write-back stores (track acked replicas, re-replicate after failures)")
		clusterPlacement   = flag.Int("cluster-placement-blocks", 128, "gateway: consecutive blocks sharing a replica set (power of two)")
		clusterHandoffMax  = flag.Int("cluster-handoff-max", 4096, "gateway: per-node hinted-handoff queue bound, in blocks")
		clusterProbeEvery  = flag.Duration("cluster-probe-every", 250*time.Millisecond, "gateway: down-node probe / repair-sweep cadence")
		clusterDialTimeout = flag.Duration("cluster-timeout", 2*time.Second, "gateway: per-op deadline on node connections")
	)
	flag.Parse()

	if *pprofAddr != "" {
		if *mutexFrac > 0 {
			runtime.SetMutexProfileFraction(*mutexFrac)
		}
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	var maxProto int
	switch *protocol {
	case "v2", "2", "":
		maxProto = appliance.ProtocolV2
	case "v1", "1":
		maxProto = appliance.ProtocolV1
	default:
		log.Fatalf("unknown -protocol %q (want v1 or v2)", *protocol)
	}
	srvOpts := appliance.ServerOptions{
		MaxConns:    *maxConns,
		IdleTimeout: *idleTimeout,
		MaxProtocol: maxProto,
		MaxPipeline: *maxPipeline,
	}

	// Gateway mode: no local store — the data path is the replicated ring.
	if *clusterPeers != "" {
		runGateway(gatewayConfig{
			listen:      *listen,
			metricsAddr: *metricsAddr,
			statsEach:   *statsEach,
			srvOpts:     srvOpts,
			cluster: cluster.Config{
				Nodes:           strings.Split(*clusterPeers, ","),
				Replicas:        *clusterReplicas,
				WriteQuorum:     *clusterQuorum,
				WriteBack:       *clusterWriteBack,
				PlacementBlocks: *clusterPlacement,
				HandoffMax:      *clusterHandoffMax,
				ProbeEvery:      *clusterProbeEvery,
				Dial:            appliance.DialOptions{Timeout: *clusterDialTimeout},
			},
		})
		return
	}

	var backend core.Backend
	if *dataDir != "" {
		fb, err := store.NewFile(*dataDir)
		if err != nil {
			log.Fatal(err)
		}
		defer fb.Close()
		for s := 0; s < *servers; s++ {
			if err := fb.AddVolume(s, 0, uint64(*volumeMB)<<20); err != nil {
				log.Fatal(err)
			}
		}
		backend = fb
	} else {
		mem := store.NewMem()
		for s := 0; s < *servers; s++ {
			mem.AddVolume(s, 0, uint64(*volumeMB)<<20)
		}
		backend = mem
	}

	// Harden the backend when asked: per-attempt deadlines, transient-error
	// retries, and per-(server, volume) circuit breakers between the cache
	// and the ensemble.
	var res *resilience.Resilient
	if *backendTimeout > 0 || *retries > 0 {
		res = resilience.Wrap(backend, resilience.Config{
			Timeout: *backendTimeout,
			Retry:   resilience.RetryPolicy{Max: *retries},
		})
		backend = res
	}

	nShards := *shards
	if nShards == 0 {
		nShards = core.DefaultShards()
	}
	opts := core.Options{
		CacheBytes:        *cacheMB << 20,
		WriteBack:         *writeBack,
		TrackLatency:      *trackLat,
		Shards:            nShards,
		Policy:            *policy,
		TraceSample:       *traceSample,
		TraceRingSize:     *traceRing,
		GroupCommitWindow: *groupCommit,
		RAMTierBytes:      *ramTierMB << 20,
		TierPromoteHits:   *promoteHits,
		TierAutotune:      *tierAutotune,
		TierMinBytes:      *tierMinMB << 20,
		TierMaxBytes:      *tierMaxMB << 20,

		TenantTracking:         *tenantTrack,
		TenantQuotas:           *tenantQuotas,
		EnduranceBytesPerDay:   *enduranceMBPerDay << 20,
		TenantRepartitionEvery: *repartitionEvery,
	}
	switch *variant {
	case "c":
		opts.Variant = core.VariantC
		opts.SieveC = sieve.DefaultCConfig()
	case "d":
		opts.Variant = core.VariantD
		opts.Epoch = *epoch
		opts.DThreshold = *threshold
		opts.SpillDir = *spillDir
	default:
		log.Fatalf("unknown variant %q", *variant)
	}
	st, err := core.Open(backend, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	if *snapshot != "" {
		if f, err := os.Open(*snapshot); err == nil {
			if err := st.LoadSnapshot(f); err != nil {
				log.Printf("snapshot load failed (starting cold): %v", err)
			} else {
				log.Printf("warm start: %d blocks restored", st.Stats().CachedBlocks)
			}
			f.Close()
		}
	}

	srv := appliance.NewServerWith(st, srvOpts)

	if *metricsAddr != "" {
		obs := appliance.NewObservability(st)
		obs.AttachServer(srv)
		if res != nil {
			obs.AttachResilience(res)
		}
		go func() {
			log.Printf("observability listening on %s (/metrics, /statusz, /debug/ops)", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, obs.Handler()); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(*listen) }()
	log.Printf("%s serving on %s (cache %d MiB, policy %s, %d shards, %d servers × %d MiB, write-back=%v)",
		st.Variant(), *listen, *cacheMB, st.Policy(), st.Shards(), *servers, *volumeMB, *writeBack)

	if *statsEach > 0 {
		go func() {
			for range time.Tick(*statsEach) {
				s := st.Stats()
				line := fmt.Sprintf("stats: accesses=%d hit=%.1f%% cached=%d/%d dirty=%d allocW=%d epochs=%d coalesced=%d",
					s.Reads+s.Writes, 100*s.HitRatio(), s.CachedBlocks, s.CapacityBlocks,
					s.DirtyBlocks, s.AllocWrites, s.Epochs, s.CoalescedReads)
				if s.SelectOverflow > 0 {
					line += fmt.Sprintf(" selOverflow=%d", s.SelectOverflow)
				}
				if s.FlushErrors > 0 || s.RotateFailures > 0 || s.ResetFailures > 0 {
					line += fmt.Sprintf(" flushErr=%d rotateFail=%d resetFail=%d",
						s.FlushErrors, s.RotateFailures, s.ResetFailures)
				}
				if ts, ok := st.TierStats(); ok {
					line += fmt.Sprintf(" tierHits=%d tierCached=%d/%d tierPromo=%d tierDemo=%d",
						ts.Hits, ts.CachedBlocks, ts.CapacityBlocks, ts.Promotions, ts.Demotions)
					if ts.Resizes > 0 {
						line += fmt.Sprintf(" tierResizes=%d", ts.Resizes)
					}
				}
				if s.Tenants > 0 {
					line += fmt.Sprintf(" tenants=%d", s.Tenants)
					if s.QuotaDenials > 0 || s.ThrottleDenials > 0 || s.TenantClips > 0 {
						line += fmt.Sprintf(" quotaDeny=%d throttleDeny=%d tenantClips=%d",
							s.QuotaDenials, s.ThrottleDenials, s.TenantClips)
					}
				}
				if s.Degraded || s.DegradedEnters > 0 || s.SpillDisables > 0 {
					line += fmt.Sprintf(" degraded=%v bypassR=%d bypassW=%d cacheFaults=%d spillDisables=%d",
						s.Degraded, s.BypassReads, s.BypassWrites, s.CacheFaults, s.SpillDisables)
				}
				if res != nil {
					r := res.Stats()
					line += fmt.Sprintf(" retries=%d timeouts=%d breakerOpen=%d breakerTrips=%d fastFails=%d",
						r.Retries, r.Timeouts, r.OpenDevices, r.BreakerTrips, r.BreakerFastFails)
				}
				if n := srv.BusyRejects(); n > 0 {
					line += fmt.Sprintf(" busyRejects=%d", n)
				}
				if *trackLat {
					line += fmt.Sprintf(" rdLat=%v/%v wrLat=%v/%v",
						s.ReadLatency.Mean().Round(time.Microsecond), time.Duration(s.ReadLatency.MaxNanos).Round(time.Microsecond),
						s.WriteLatency.Mean().Round(time.Microsecond), time.Duration(s.WriteLatency.MaxNanos).Round(time.Microsecond))
				}
				log.Print(line)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		log.Fatalf("serve: %v", err)
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
	}

	if err := srv.Close(); err != nil {
		log.Printf("server close: %v", err)
	}
	if *snapshot != "" {
		if err := writeSnapshot(st, *snapshot); err != nil {
			log.Printf("snapshot save failed: %v", err)
		} else {
			log.Printf("snapshot saved to %s", *snapshot)
		}
	}
	if err := st.Close(); err != nil {
		log.Printf("store close: %v", err)
	}
}

type gatewayConfig struct {
	listen      string
	metricsAddr string
	statsEach   time.Duration
	srvOpts     appliance.ServerOptions
	cluster     cluster.Config
}

// runGateway fronts a replicated ring of appliance nodes with the same
// wire protocol a single appliance speaks: ensemble servers connect to
// the gateway, which routes, replicates, and fails over per block.
func runGateway(cfg gatewayConfig) {
	cl, err := cluster.New(cfg.cluster)
	if err != nil {
		log.Fatal(err)
	}
	srv := appliance.NewServerWith(cl, cfg.srvOpts)

	if cfg.metricsAddr != "" {
		go func() {
			log.Printf("cluster observability listening on %s (/metrics, /statusz)", cfg.metricsAddr)
			if err := http.ListenAndServe(cfg.metricsAddr, cl.Handler()); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(cfg.listen) }()
	log.Printf("cluster gateway serving on %s (%d nodes, R=%d W=%d write-back=%v)",
		cfg.listen, len(cfg.cluster.Nodes), cfg.cluster.Replicas, cfg.cluster.WriteQuorum, cfg.cluster.WriteBack)

	if cfg.statsEach > 0 {
		go func() {
			for range time.Tick(cfg.statsEach) {
				s := cl.ClusterStats()
				up := 0
				for _, n := range s.Nodes {
					if n.State == "up" {
						up++
					}
				}
				log.Printf("cluster: nodes=%d/%d reads=%d writes=%d fallthrough=%d hinted=%d drained=%d rebalanced=%d underRepl=%d hints=%d quorumFail=%d",
					up, s.RingSize, s.Reads, s.Writes, s.Fallthroughs, s.Hinted, s.Drained,
					s.Rebalanced, s.UnderReplicated, s.HintDepth, s.QuorumFailures)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		log.Fatalf("serve: %v", err)
	case s := <-sig:
		log.Printf("received %v, shutting down", s)
	}
	if err := srv.Close(); err != nil {
		log.Printf("server close: %v", err)
	}
	// Settle the ring before dropping connections: deliver pending hints
	// and push dirty replicas down to the ensemble.
	if err := cl.Flush(); err != nil {
		log.Printf("cluster flush: %v", err)
	}
	if err := cl.Close(); err != nil {
		log.Printf("cluster close: %v", err)
	}
}

// writeSnapshot saves atomically and durably: the temp file is synced
// before it is renamed over path, and the directory after, so a power
// loss leaves either the old snapshot or the complete new one — never an
// empty or torn file under the final name.
func writeSnapshot(st *core.Store, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = st.SaveSnapshot(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
