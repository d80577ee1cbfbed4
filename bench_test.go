// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation (see DESIGN.md's per-experiment index). Each
// BenchmarkTable*/BenchmarkFig*/BenchmarkSec* target rebuilds one artifact
// from a shared experiment run (done once, at a reduced scale) and reports
// its headline numbers as benchmark metrics; -v additionally logs the full
// rows. Micro-benchmarks at the bottom measure the hot paths themselves.
//
//	go test -bench=. -benchmem                  # everything
//	go test -bench=BenchmarkFig5 -v             # one figure, with its rows
package repro

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/appliance"
	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sieve"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// benchScale trades fidelity for time: the full experiment at this scale
// runs in a few seconds. cmd/experiments regenerates everything at the
// default 1/512 scale.
const benchScale = 16384

var (
	benchOnce    sync.Once
	benchResults *exp.Results
	benchErr     error
)

func results(b *testing.B) *exp.Results {
	b.Helper()
	benchOnce.Do(func() {
		benchResults, benchErr = exp.Run(exp.DefaultConfig(benchScale))
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchResults
}

// BenchmarkTable1TraceSummary regenerates Table 1 (the ensemble/trace
// roster summary).
func BenchmarkTable1TraceSummary(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Table1()
	}
	b.Logf("\n%s", table)
	b.ReportMetric(float64(res.TraceStats.Requests), "requests")
	b.ReportMetric(float64(res.TraceStats.UniqueBlocks), "unique-blocks")
}

// BenchmarkTable2AllocationPolicyImpact regenerates the analytic Table 2.
func BenchmarkTable2AllocationPolicyImpact(b *testing.B) {
	var rows []sieve.Table2Row
	for i := 0; i < b.N; i++ {
		rows = sieve.Table2(0.35, 0.75, 0)
	}
	b.Logf("%+v", rows)
	b.ReportMetric(rows[0].SSDWrites*100, "AOD-ssd-writes-%")
	b.ReportMetric(rows[1].SSDWrites*100, "WMNA-ssd-writes-%")
	b.ReportMetric(rows[2].SSDOps*100, "ISA-ssd-ops-%")
}

// BenchmarkFig2aAccessCountDistribution regenerates Figure 2(a).
func BenchmarkFig2aAccessCountDistribution(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig2a()
	}
	b.Logf("\n%s", table)
	// Headline: the top-1% boundary sits near 10 accesses/day (O1).
	day := res.DayInfo[2]
	for _, bin := range day.Bins {
		if bin.UpperPercentile >= 0.01 {
			b.ReportMetric(bin.AvgCount, "top1pct-bin-avg-count")
			break
		}
	}
}

// BenchmarkFig2bPopularityCDF regenerates Figure 2(b).
func BenchmarkFig2bPopularityCDF(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig2b()
	}
	b.Logf("\n%s", table)
	b.ReportMetric(res.DayInfo[2].Top1Share*100, "day2-top1pct-share-%")
}

// BenchmarkFig2cZoomCDF regenerates Figure 2(c) (the top-5% zoom is the
// same CDF restricted to the knee).
func BenchmarkFig2cZoomCDF(b *testing.B) {
	res := results(b)
	var knee float64
	for i := 0; i < b.N; i++ {
		for _, p := range res.DayInfo[2].CDF {
			if p.Percentile >= 0.05 {
				knee = p.CumFraction
				break
			}
		}
	}
	b.ReportMetric(knee*100, "day2-top5pct-share-%")
}

// BenchmarkFig3aServerVariation regenerates Figure 3(a).
func BenchmarkFig3aServerVariation(b *testing.B) {
	res := results(b)
	var prxy, src1 float64
	for i := 0; i < b.N; i++ {
		prxy = cdfAt(res.Skew.PrxyDay2, 0.01)
		src1 = cdfAt(res.Skew.Src1Day2, 0.01)
	}
	b.ReportMetric(prxy*100, "prxy-top1pct-%")
	b.ReportMetric(src1*100, "src1-top1pct-%")
}

// BenchmarkFig3bVolumeVariation regenerates Figure 3(b).
func BenchmarkFig3bVolumeVariation(b *testing.B) {
	res := results(b)
	var v0, v1 float64
	for i := 0; i < b.N; i++ {
		v0 = cdfAt(res.Skew.WebVol0Day2, 0.01)
		v1 = cdfAt(res.Skew.WebVol1Day2, 0.01)
	}
	b.ReportMetric(v0*100, "web-vol0-top1pct-%")
	b.ReportMetric(v1*100, "web-vol1-top1pct-%")
}

// BenchmarkFig3cTimeVariation regenerates Figure 3(c).
func BenchmarkFig3cTimeVariation(b *testing.B) {
	res := results(b)
	var d3, d5 float64
	for i := 0; i < b.N; i++ {
		d3 = cdfAt(res.Skew.StgDay3, 0.01)
		d5 = cdfAt(res.Skew.StgDay5, 0.01)
	}
	b.ReportMetric(d3*100, "stg-day3-top1pct-%")
	b.ReportMetric(d5*100, "stg-day5-top1pct-%")
}

// BenchmarkFig3dTop1Composition regenerates Figure 3(d).
func BenchmarkFig3dTop1Composition(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig3()
	}
	b.Logf("\n%s", table)
	// Headline: the composition varies day to day; report one server's swing.
	minS, maxS := 1.0, 0.0
	for _, di := range res.DayInfo[1:] {
		s := di.Composition[0] // usr
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	b.ReportMetric(minS*100, "usr-share-min-%")
	b.ReportMetric(maxS*100, "usr-share-max-%")
}

// BenchmarkFig5AccessesCaptured regenerates Figure 5.
func BenchmarkFig5AccessesCaptured(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig5()
	}
	b.Logf("\n%s", table)
	b.ReportMetric(100*res.Policies[exp.PIdeal].Total().HitRatio(), "ideal-hit-%")
	b.ReportMetric(100*res.Policies[exp.PSieveD].Total().HitRatio(), "sievestore-d-hit-%")
	b.ReportMetric(100*res.Policies[exp.PSieveC].Total().HitRatio(), "sievestore-c-hit-%")
	b.ReportMetric(100*res.Policies[exp.PWMNA32].Total().HitRatio(), "wmna32-hit-%")
	b.ReportMetric(100*(res.GainOverUnsieved(exp.PSieveD)-1), "d-gain-over-unsieved-%")
	b.ReportMetric(100*(res.GainOverUnsieved(exp.PSieveC)-1), "c-gain-over-unsieved-%")
}

// BenchmarkFig6AllocationWrites regenerates Figure 6.
func BenchmarkFig6AllocationWrites(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig6()
	}
	b.Logf("\n%s", table)
	c := res.Policies[exp.PSieveC].Total().AllocWrites
	u := res.Policies[exp.PWMNA32].Total().AllocWrites
	d := res.Policies[exp.PSieveD].Total().Moves
	b.ReportMetric(float64(c), "sievestore-c-allocs")
	b.ReportMetric(float64(d), "sievestore-d-moves")
	b.ReportMetric(float64(u)/float64(c), "unsieved-blowup-x")
}

// BenchmarkFig7SSDAccesses regenerates Figure 7.
func BenchmarkFig7SSDAccesses(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig7()
	}
	b.Logf("\n%s", table)
	cTot := res.Policies[exp.PSieveC].Total()
	uTot := res.Policies[exp.PWMNA32].Total()
	b.ReportMetric(float64(cTot.SSDOps()), "sievestore-c-ssd-ops")
	b.ReportMetric(float64(uTot.SSDOps()), "wmna32-ssd-ops")
	b.ReportMetric(float64(uTot.AllocWrites)/float64(uTot.SSDOps()+1), "wmna32-alloc-fraction")
}

// BenchmarkFig8IOPSOccupancy regenerates Figure 8.
func BenchmarkFig8IOPSOccupancy(b *testing.B) {
	res := results(b)
	var sieveOcc, wmnaOcc exp.OccupancyAnalysis
	for i := 0; i < b.N; i++ {
		sieveOcc = res.Occupancy(exp.PSieveC)
		wmnaOcc = res.Occupancy(exp.PWMNA32)
	}
	b.ReportMetric(sieveOcc.MaxOccupancy, "sievestore-c-max-occ")
	b.ReportMetric(100*sieveOcc.FracUnder1, "sievestore-c-under1-%")
	b.ReportMetric(wmnaOcc.MaxOccupancy, "wmna32-max-occ")
}

// BenchmarkFig9DrivesNeeded regenerates Figure 9.
func BenchmarkFig9DrivesNeeded(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Fig89()
	}
	b.Logf("\n%s", table)
	sd := res.Occupancy(exp.PSieveD)
	sc := res.Occupancy(exp.PSieveC)
	w := res.Occupancy(exp.PWMNA32)
	b.ReportMetric(float64(sd.Coverage[2].Drives), "sievestore-d-drives@99.9")
	b.ReportMetric(float64(sc.Coverage[2].Drives), "sievestore-c-drives@99.9")
	b.ReportMetric(float64(w.Coverage[2].Drives), "wmna32-drives@99.9")
}

// BenchmarkSec53PerServer regenerates the §5.3 ensemble-vs-per-server
// comparison.
func BenchmarkSec53PerServer(b *testing.B) {
	res := results(b)
	var table string
	for i := 0; i < b.N; i++ {
		table = res.Sec53()
	}
	b.Logf("\n%s", table)
	var ens, elastic, static float64
	for d := 2; d < res.Days; d++ {
		ens += res.EnsembleShared[d].HitRatio()
		elastic += res.PerServerElastic[d].HitRatio()
		static += res.PerServerStatic[d].HitRatio()
	}
	n := float64(res.Days - 2)
	b.ReportMetric(100*ens/n, "ensemble-hit-%")
	b.ReportMetric(100*elastic/n, "perserver-elastic-hit-%")
	b.ReportMetric(100*static/n, "perserver-static-hit-%")
}

// BenchmarkSensitivityDThreshold regenerates the §5.1 SieveStore-D
// threshold sweep.
func BenchmarkSensitivityDThreshold(b *testing.B) {
	cfg := exp.DefaultConfig(benchScale * 2)
	var rows []exp.DThresholdRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.SensitivityD(cfg, []int64{8, 10, 14, 20})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("%+v", rows)
	b.ReportMetric(rows[1].HitRatio*100, "t10-hit-%")
	b.ReportMetric(rows[3].HitRatio*100, "t20-hit-%")
}

// BenchmarkSensitivityCWindow regenerates the §5.1 window sweep.
func BenchmarkSensitivityCWindow(b *testing.B) {
	cfg := exp.DefaultConfig(benchScale * 2)
	var rows []exp.CWindowRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.SensitivityCWindow(cfg, []time.Duration{2 * time.Hour, 8 * time.Hour})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("%+v", rows)
	b.ReportMetric(rows[0].HitRatio*100, "w2h-hit-%")
	b.ReportMetric(rows[1].HitRatio*100, "w8h-hit-%")
}

// BenchmarkAblationSingleTier regenerates the two-tier-vs-single-tier
// ablation (DESIGN.md).
func BenchmarkAblationSingleTier(b *testing.B) {
	cfg := exp.DefaultConfig(benchScale * 2)
	var rows []exp.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.AblationSingleTier(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("%+v", rows)
	b.ReportMetric(float64(rows[1].AllocWrites)/float64(rows[0].AllocWrites), "single-tier-alloc-blowup-x")
}

// BenchmarkFig1Quadrants regenerates the Figure 1 design-space matrix
// (sieved/unsieved × ensemble/per-server) as four full simulations.
func BenchmarkFig1Quadrants(b *testing.B) {
	cfg := exp.DefaultConfig(benchScale)
	var rows []exp.QuadrantResult
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = exp.Quadrants(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", exp.FormatQuadrants(rows))
	b.ReportMetric(100*rows[0].HitRatio, "QI-sieved-ensemble-hit-%")
	b.ReportMetric(100*rows[1].HitRatio, "QII-unsieved-ensemble-hit-%")
	b.ReportMetric(100*rows[3].HitRatio, "QIV-sieved-perserver-hit-%")
	b.ReportMetric(float64(rows[0].Drives), "QI-drives")
	b.ReportMetric(float64(rows[2].Drives), "QIII-drives")
}

// BenchmarkEnduranceLifetime regenerates the §5.1 endurance estimate.
func BenchmarkEnduranceLifetime(b *testing.B) {
	res := results(b)
	var life float64
	for i := 0; i < b.N; i++ {
		_, life = res.Endurance(exp.PSieveC)
	}
	b.ReportMetric(life, "sievestore-c-lifetime-years")
}

// cdfAt reads a CDF curve at a percentile.
func cdfAt(points []analysis.CDFPoint, pct float64) float64 {
	for _, p := range points {
		if p.Percentile >= pct {
			return p.CumFraction
		}
	}
	if len(points) == 0 {
		return 0
	}
	return points[len(points)-1].CumFraction
}

// ---- hot-path micro-benchmarks ----

// BenchmarkWorkloadDayGeneration measures synthesizing one trace day.
func BenchmarkWorkloadDayGeneration(b *testing.B) {
	gen, err := workload.New(workload.Default(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gen.Day(2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorDay measures simulating one day under SieveStore-C.
func BenchmarkSimulatorDay(b *testing.B) {
	gen, err := workload.New(workload.Default(benchScale))
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := gen.Day(2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := exp.DefaultConfig(benchScale)
	var accesses int64
	for _, r := range reqs {
		accesses += int64(r.Blocks())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy, err := sieve.NewC(cfg.SieveC)
		if err != nil {
			b.Fatal(err)
		}
		c := sim.NewContinuous(cfg.CacheBlocks(cfg.CacheGB), policy)
		for j := range reqs {
			c.Process(&reqs[j])
		}
	}
	b.ReportMetric(float64(accesses), "block-accesses/op")
}

// BenchmarkSieveCShouldAllocate measures the per-miss sieve decision.
func BenchmarkSieveCShouldAllocate(b *testing.B) {
	policy, err := sieve.NewC(sieve.DefaultCConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc := block.Access{
			Time: int64(i) * 1e6,
			Key:  block.MakeKey(i&7, 0, uint64(i%100000)),
			Kind: block.Read,
		}
		policy.ShouldAllocate(acc)
	}
}

// BenchmarkCoreReadHit measures a cached 4 KiB read through the library.
func BenchmarkCoreReadHit(b *testing.B) {
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<24)
	st, err := core.Open(be, core.Options{
		CacheBytes: 1 << 20,
		SieveC:     sieve.CConfig{IMCTSize: 1 << 12, T1: 1, T2: 1, Window: time.Hour, Subwindows: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	buf := make([]byte, 4096)
	// Heat the block (T1=1,T2=1 admits on the 2nd miss).
	for i := 0; i < 3; i++ {
		if err := st.ReadAt(0, 0, buf, 0); err != nil {
			b.Fatal(err)
		}
	}
	if !st.Contains(0, 0, 0) {
		b.Fatal("setup: block not cached")
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.ReadAt(0, 0, buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreReadMiss measures an uncached 4 KiB read (backend path +
// sieve consultation).
func BenchmarkCoreReadMiss(b *testing.B) {
	be := store.NewMem()
	be.AddVolume(0, 0, 1<<30)
	st, err := core.Open(be, core.Options{CacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i%(1<<17)) * 4096
		if err := st.ReadAt(0, 0, buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

// newLatencyStore builds a Store over a 1 ms-per-request sleeping backend —
// slow enough that lock-vs-I/O overlap dominates the measurement.
func newLatencyStore(b *testing.B) (*core.Store, *store.Latency) {
	b.Helper()
	mem := store.NewMem()
	mem.AddVolume(0, 0, 1<<30)
	lat := store.NewLatency(mem)
	lat.PerRequest = time.Millisecond
	lat.PerByte = 0
	lat.Sleep = true
	st, err := core.Open(lat, core.Options{
		CacheBytes:   1 << 22,
		SieveC:       sieve.CConfig{IMCTSize: 1 << 16, T1: 2, T2: 2, Window: time.Hour, Subwindows: 4},
		TrackLatency: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	return st, lat
}

// BenchmarkConcurrentStore measures aggregate miss-path read throughput as
// client goroutines grow. Every read targets a distinct block, so each op
// pays the backend's 1 ms service time; with the store lock released during
// backend I/O the per-op wall time should fall near-linearly with clients
// (the acceptance bar is ≥2× aggregate throughput at 8 clients vs 1).
func BenchmarkConcurrentStore(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			st, _ := newLatencyStore(b)
			defer st.Close()
			var next atomic.Int64
			b.SetBytes(4096)
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < clients; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					buf := make([]byte, 4096)
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						off := uint64(i%(1<<16)) * 4096
						if err := st.ReadAt(0, 0, buf, off); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
		})
	}
}

// BenchmarkRotationWhileServing measures cached-read latency while
// SieveStore-D epoch rotations run against a slow (50 ms per request)
// ensemble. The during-rotation case continuously forces rotations whose
// batch fetches hit the 50 ms backend; cached reads must keep being served
// at memory speed instead of stalling behind the rotation. (The old design
// held the store lock across the rotation's per-block backend fetches, so
// every hit waited out the whole epoch move — hundreds of milliseconds.)
// max-hit-ms reports the worst single cached read observed.
func BenchmarkRotationWhileServing(b *testing.B) {
	for _, rotating := range []bool{false, true} {
		name := "baseline"
		if rotating {
			name = "during-rotation"
		}
		b.Run(name, func(b *testing.B) {
			mem := store.NewMem()
			mem.AddVolume(0, 0, 1<<30)
			lat := store.NewLatency(mem)
			lat.PerRequest = 50 * time.Millisecond
			lat.PerByte = 0
			lat.Sleep = true
			st, err := core.Open(lat, core.Options{
				CacheBytes: 1 << 20,
				Variant:    core.VariantD,
				DThreshold: 1,
				Epoch:      time.Hour,
				SpillDir:   b.TempDir(),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			buf := make([]byte, 4096)
			if err := st.ReadAt(0, 0, buf, 0); err != nil { // log the hot blocks
				b.Fatal(err)
			}
			if err := st.RotateEpoch(); err != nil { // and move them in
				b.Fatal(err)
			}
			if !st.Contains(0, 0, 0) {
				b.Fatal("setup: hot block not cached")
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			if rotating {
				wg.Add(1)
				go func() {
					defer wg.Done()
					scratch := make([]byte, 4096)
					next := uint64(1 << 16) // far from the hot blocks
					for {
						select {
						case <-stop:
							return
						default:
						}
						// Log a fresh cold extent, then force a rotation
						// that must fetch it from the 50 ms ensemble. (The
						// hot blocks stay selected: the measurement loop
						// keeps logging them, and the threshold is 1.)
						if err := st.ReadAt(0, 0, scratch, next*4096); err != nil {
							b.Error(err)
							return
						}
						next++
						if err := st.RotateEpoch(); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			var maxHit time.Duration
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if err := st.ReadAt(0, 0, buf, 0); err != nil {
					b.Fatal(err)
				}
				if d := time.Since(t0); d > maxHit {
					maxHit = d
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(maxHit)/1e6, "max-hit-ms")
		})
	}
}

// BenchmarkConcurrentAppliance is the same scaling probe end-to-end: N
// client goroutines against one appliance server over loopback, across the
// three wire configurations that matter:
//
//   - v1/conn-per-client: the legacy protocol's only way to overlap I/O —
//     one TCP connection (and server goroutine) per client.
//   - v1/shared-conn: N goroutines multiplexed over ONE connection. v1 is
//     strictly request/response, so the client mutex serializes every op;
//     throughput pins near 1/latency regardless of N. This is the baseline
//     the tagged-frame work exists to fix.
//   - v2/shared-conn: the same single connection, but v2 tags let all N
//     requests stay in flight at once; throughput should track
//     conn-per-client without the N-sockets cost.
func BenchmarkConcurrentAppliance(b *testing.B) {
	for _, mode := range []struct {
		name   string
		proto  int
		shared bool
	}{
		{"v1-conn-per-client", appliance.ProtocolV1, false},
		{"v1-shared-conn", appliance.ProtocolV1, true},
		{"v2-shared-conn", appliance.ProtocolV2, true},
	} {
		for _, clients := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("%s/clients=%d", mode.name, clients), func(b *testing.B) {
				st, _ := newLatencyStore(b)
				defer st.Close()
				srv := appliance.NewServer(st)
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				done := make(chan struct{})
				go func() { defer close(done); srv.Serve(l) }()
				defer func() { srv.Close(); <-done }()

				dial := func() *appliance.Client {
					c, err := appliance.DialWith(l.Addr().String(),
						appliance.DialOptions{Protocol: mode.proto})
					if err != nil {
						b.Fatal(err)
					}
					return c
				}
				conns := make([]*appliance.Client, clients)
				if mode.shared {
					shared := dial()
					defer shared.Close()
					for i := range conns {
						conns[i] = shared
					}
				} else {
					for i := range conns {
						conns[i] = dial()
						defer conns[i].Close()
					}
				}
				var next atomic.Int64
				b.SetBytes(4096)
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < clients; g++ {
					wg.Add(1)
					go func(c *appliance.Client) {
						defer wg.Done()
						buf := make([]byte, 4096)
						for {
							i := next.Add(1) - 1
							if i >= int64(b.N) {
								return
							}
							off := uint64(i%(1<<16)) * 4096
							if err := c.ReadAt(0, 0, buf, off); err != nil {
								b.Error(err)
								return
							}
						}
					}(conns[g])
				}
				wg.Wait()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/s")
			})
		}
	}
}

// BenchmarkHitPathParallel measures cache-*hit* throughput under
// parallelism — the tentpole target of the sharded store. Every goroutine
// reads and write-through-updates blocks that are already resident, so no
// backend I/O happens inside the measured loop; the only scaling limiter
// is lock contention. Run with -cpu 1,2,4,8 and vary Shards to see the
// per-shard-lock effect; BenchmarkConcurrentStore covers the miss path.
//
// The policy dimension compares replacement engines on the hit path: LRU
// does list surgery under the shard lock on every hit, SIEVE only sets a
// visited bit, so SIEVE should be at least as fast — the gap is the price
// of recency bookkeeping, and it grows with contention (fewer shards,
// more CPUs).
func BenchmarkHitPathParallel(b *testing.B) {
	for _, shards := range []int{1, 8} {
		for _, policy := range []string{"lru", "sieve"} {
			for _, mix := range []struct {
				name   string
				writes bool
			}{{"read", false}, {"readwrite", true}} {
				// metrics=on adds the full observability cost to every op:
				// two monotonic clock reads, the striped latency histogram
				// (which also backs the flat OpLatencySnapshot stats), and 1-in-64
				// op-trace sampling. The acceptance bar is <5% regression
				// against the seed's TrackLatency-only path; the gap against
				// metrics=off is dominated by the clock reads, which any
				// latency measurement pays.
				for _, obs := range []struct {
					name  string
					track bool
				}{{"metrics=off", false}, {"metrics=on", true}} {
					b.Run(fmt.Sprintf("shards=%d/policy=%s/%s/%s", shards, policy, mix.name, obs.name), func(b *testing.B) {
						const span = 4096 // resident blocks
						be := store.NewMem()
						be.AddVolume(0, 0, 2*span*block.Size)
						opts := core.Options{
							CacheBytes: 2 * span * block.Size,
							Shards:     shards,
							Policy:     policy,
							SieveC:     sieve.CConfig{IMCTSize: 1 << 14, T1: 1, T2: 1, Window: time.Hour, Subwindows: 4},
						}
						if obs.track {
							opts.TrackLatency = true
							opts.TraceSample = 64
						}
						st, err := core.Open(be, opts)
						if err != nil {
							b.Fatal(err)
						}
						defer st.Close()
						buf := make([]byte, block.Size)
						// Heat every block (T1=1,T2=1 admits on the 2nd miss).
						for pass := 0; pass < 3; pass++ {
							for blk := uint64(0); blk < span; blk++ {
								if err := st.ReadAt(0, 0, buf, blk*block.Size); err != nil {
									b.Fatal(err)
								}
							}
						}
						if got := st.Stats().CachedBlocks; got < span {
							b.Fatalf("setup: only %d/%d blocks cached", got, span)
						}
						b.SetBytes(block.Size)
						var worker atomic.Uint64
						b.ResetTimer()
						b.RunParallel(func(pb *testing.PB) {
							p := make([]byte, block.Size)
							// Distinct seed per worker so goroutines don't walk the
							// same block sequence (and thus the same shards) in near
							// lockstep.
							x := (worker.Add(1) + 1) * 0x9e3779b97f4a7c15
							for pb.Next() {
								x ^= x << 13
								x ^= x >> 7
								x ^= x << 17
								blk := x % span
								if mix.writes && x%8 == 0 {
									if err := st.WriteAt(0, 0, p, blk*block.Size); err != nil {
										b.Fatal(err)
									}
									continue
								}
								if err := st.ReadAt(0, 0, p, blk*block.Size); err != nil {
									b.Fatal(err)
								}
							}
						})
					})
				}
			}
		}
	}
}

// BenchmarkTieredHitPath measures the RAM tier's effect on hot-read
// latency at the contended shard count. With the tier off, every hit
// takes its shard's exclusive mutex (two map lookups, a policy touch,
// stats); with the tier on and the hot set promoted, a hit is a shared
// RLock, one map lookup, and a copy — no exclusive lock anywhere. The
// acceptance bar is a ≥25% ns/op reduction for shards=8/read; the
// readwrite mix shows the re-promotion cost writes impose (each write
// invalidates the tier copy, which must then earn promotion again).
func BenchmarkTieredHitPath(b *testing.B) {
	const span = 4096 // resident blocks, all tier-promotable
	for _, tiered := range []struct {
		name  string
		bytes int64
	}{{"tier=off", 0}, {"tier=on", 2 * span * block.Size}} {
		// tier=on sizes the tier at 2× the hot span: key-hash imbalance
		// across the 8 tier shards means exact-fit capacity evicts a few
		// blocks from the fuller shards.
		for _, mix := range []struct {
			name   string
			writes bool
		}{{"read", false}, {"readwrite", true}} {
			b.Run(fmt.Sprintf("shards=8/%s/%s", tiered.name, mix.name), func(b *testing.B) {
				be := store.NewMem()
				be.AddVolume(0, 0, 2*span*block.Size)
				st, err := core.Open(be, core.Options{
					CacheBytes:   2 * span * block.Size,
					Shards:       8,
					Policy:       "sieve",
					RAMTierBytes: tiered.bytes,
					// Promote on the first SSD hit: the sequential heat loop
					// defeats the aliasing filter (colliding blocks reset each
					// other every pass), and the bench measures the hit path,
					// not the admission filter.
					TierPromoteHits: 1,
					SieveC:          sieve.CConfig{IMCTSize: 1 << 14, T1: 1, T2: 1, Window: time.Hour, Subwindows: 4},
				})
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				buf := make([]byte, block.Size)
				// Heat every block (T1=1,T2=1 admits on the 2nd miss), then
				// two more hit passes to fire the promotion filter.
				for pass := 0; pass < 5; pass++ {
					for blk := uint64(0); blk < span; blk++ {
						if err := st.ReadAt(0, 0, buf, blk*block.Size); err != nil {
							b.Fatal(err)
						}
					}
				}
				if got := st.Stats().CachedBlocks; got < span {
					b.Fatalf("setup: only %d/%d blocks cached", got, span)
				}
				if tiered.bytes > 0 {
					if got := st.Stats().TierCachedBlocks; got < span {
						b.Fatalf("setup: only %d/%d blocks promoted", got, span)
					}
				}
				b.SetBytes(block.Size)
				var worker atomic.Uint64
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					p := make([]byte, block.Size)
					x := (worker.Add(1) + 1) * 0x9e3779b97f4a7c15
					for pb.Next() {
						x ^= x << 13
						x ^= x >> 7
						x ^= x << 17
						blk := x % span
						if mix.writes && x%8 == 0 {
							if err := st.WriteAt(0, 0, p, blk*block.Size); err != nil {
								b.Fatal(err)
							}
							continue
						}
						if err := st.ReadAt(0, 0, p, blk*block.Size); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.StopTimer()
				if tiered.bytes > 0 {
					ts := st.Stats()
					b.ReportMetric(float64(ts.TierHits)/float64(ts.Reads+1), "tier-hit-frac")
				}
			})
		}
	}
}
