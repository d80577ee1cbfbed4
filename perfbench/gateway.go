package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/appliance"
	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sieve"
)

const (
	gatewayNodes      = 3
	gatewaySpan       = 4096 // blocks per tenant
	gatewayCacheBytes = 8 << 20
	// gatewayRate is the nominal request rate that sizes a round: a round
	// measures seconds/rounds × gatewayRate requests.
	gatewayRate = 65_000
)

// gatewaySieve admits on the first miss, so warm-up leaves the whole span
// resident.
var gatewaySieve = sieve.CConfig{IMCTSize: 1 << 12, T1: 1, T2: 1, Window: time.Hour, Subwindows: 4}

// served is one appliance.Server on a loopback listener.
type served struct {
	srv  *appliance.Server
	addr string
	done chan struct{}
}

func serve(st appliance.BlockStore) (*served, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: appliance.NewServer(st), addr: l.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(l)
	}()
	return s, nil
}

// stop closes the server and waits for its accept loop to end.
func (s *served) stop() {
	s.srv.Close()
	<-s.done
}

// gatewayRound builds client → wire → gateway server over a
// cluster.Client → three node servers over write-back core.Stores → one
// stand-in ensemble, all on loopback in this process. Tenant 0's client
// speaks protocol v1, tenant 1's v2.
func gatewayRound(p params, o roundOpts) (res *roundResult, err error) {
	t0 := roundStart()
	r := &roundResult{layer: map[string]float64{}}
	ten := &tenantMap{}
	tenants := []int{ten.add(0, 0), ten.add(1, 0)}
	caps := []uint64{gatewaySpan * block.Size, gatewaySpan * block.Size}
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
	wrap := func(st appliance.BlockStore, level int) appliance.BlockStore {
		if tr == nil {
			return st
		}
		return &tracedStore{inner: st, tr: tr, level: level}
	}

	var stores []*core.Store
	var nodes []*served
	defer func() {
		for _, n := range nodes {
			n.stop()
		}
		for _, st := range stores {
			if cerr := st.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	addrs := make([]string, gatewayNodes)
	for i := range addrs {
		st, err := core.Open(be, core.Options{
			CacheBytes:   gatewayCacheBytes,
			Shards:       8,
			Variant:      core.VariantC,
			SieveC:       gatewaySieve,
			WriteBack:    true,
			TrackLatency: true,
		})
		if err != nil {
			return nil, err
		}
		stores = append(stores, st)
		n, err := serve(wrap(st, levelNode))
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
		addrs[i] = n.addr
	}
	r.setupCfg = layerSetup{policy: "lru", capacity: gatewayCacheBytes / block.Size / 8, shards: 8, sieveC: gatewaySieve}
	cl, err := cluster.New(cluster.Config{Nodes: addrs, Replicas: 2, WriteQuorum: 1, WriteBack: true})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	gw, err := serve(wrap(cl, levelGateway))
	if err != nil {
		return nil, err
	}
	defer gw.stop()
	var clients []*appliance.Client
	for _, proto := range []int{appliance.ProtocolV1, appliance.ProtocolV2} {
		c, err := appliance.DialWith(gw.addr, appliance.DialOptions{Protocol: proto, Timeout: 10 * time.Second})
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients = append(clients, c)
	}

	sh := newShadow([]uint64{gatewaySpan, gatewaySpan})
	// Warm-up: write every block once, then read it back, so every block
	// is resident on its replicas.
	buf := make([]byte, block.Size)
	for i, c := range clients {
		t := tenants[i]
		id := ten.ids[t]
		for pass := 0; pass < 2; pass++ {
			for n := uint64(0); n < gatewaySpan; n++ {
				var err error
				if pass == 0 {
					sh.write(buf, t, n)
					err = c.WriteAt(id[0], id[1], buf, n*block.Size)
				} else if err = c.ReadAt(id[0], id[1], buf, n*block.Size); err == nil && !sh.check(buf, t, n) {
					r.failed++
				}
				r.attempted++
				if err != nil {
					return nil, fmt.Errorf("gateway warm-up: %w", err)
				}
			}
		}
	}
	r.setup = time.Since(t0)

	nodeStats := func() core.Stats {
		var s core.Stats
		for _, st := range stores {
			addStats(&s, st.Stats())
		}
		return s
	}
	cBefore := cl.ClusterStats()
	cs := newZipfClients(p.seed, []opStore{clients[0], clients[1]}, tenants, ten, gatewaySpan)
	// Warm-up leaves every block resident and every missed block is
	// admitted (thresholds 1/1).
	admitAll := func(int, int, uint64) bool { return true }
	ph := &phase{sh: sh, tk: newTicker(0), timeEvery: 1, tr: tr, traceEvery: 1, record: o.traced, contains: admitAll}
	r.beginMeasure()
	ph.measure(cs, requestsFor(p, gatewayRate), r)
	r.endMeasure()
	cAfter := cl.ClusterStats()
	r.layer["cluster.hinted"] = float64(cAfter.Hinted - cBefore.Hinted)
	r.layer["cluster.fallthroughs"] = float64(cAfter.Fallthroughs - cBefore.Fallthroughs)
	if o.scrape {
		r.layer["appliance.scrape_us"] = scrapeUS(stores[0])
	}

	// Flush the write-back nodes and read the ensemble itself back.
	if err := clients[1].Flush(); err != nil {
		return nil, fmt.Errorf("gateway flush: %w", err)
	}
	// In steady state the whole span is resident, so over the measured
	// phase alone the nodes would allocate and write back nothing. The
	// counters therefore cover the ring's life: warm-up sweep, measured
	// phase and the final flush. Both phases are a fixed number of
	// requests, so the per-access figures do not depend on speed.
	r.delta = nodeStats()
	for i := range clients {
		t := tenants[i]
		id := ten.ids[t]
		for n := uint64(0); n < gatewaySpan; n++ {
			r.attempted++
			if err := be.ReadAt(id[0], id[1], buf, n*block.Size); err != nil || !sh.check(buf, t, n) {
				r.failed++
			}
		}
	}

	sh, ph.sh, cs = nil, nil, nil
	r.heap = liveHeap(p, rt, r)
	runtime.KeepAlive(stores)
	return r, nil
}
