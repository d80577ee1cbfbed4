package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
)

// opStore is what a closed-loop client calls: a core.Store in process or
// an appliance.Client over the wire.
type opStore interface {
	ReadAt(server, volume int, p []byte, off uint64) error
	WriteAt(server, volume int, p []byte, off uint64) error
}

// recCap bounds the requests one client records in a traced round.
const recCap = 1 << 19

// opRec is one recorded request, replayed through single layers in the
// traced run.
type opRec struct {
	at    int64     // issue time on the store's clock, ns
	key   block.Key // first block
	n     uint16    // blocks
	kind  uint8
	miss  bool // a read that reached the backend, or a write to a block not resident
	admit bool // a missed block was resident afterwards
}

// ticker hands the clients of a round their request numbers, in batches
// of ticketBatch so that two clients rarely write its cache line. A phase
// ends at a fixed request number, so a round measures a fixed amount of
// work rather than a fixed time, and its counts do not depend on how fast
// the program is. With a step, Now is a clock that advances by step per
// request issued; the hot set's store reads its time from it.
type ticker struct {
	n    atomic.Int64
	base time.Time
	step time.Duration
}

const ticketBatch = 64

func newTicker(step time.Duration) *ticker {
	return &ticker{base: time.Date(2008, 2, 22, 0, 0, 0, 0, time.UTC), step: step}
}

// Now is the request-driven clock; without a step it is the wall clock.
func (t *ticker) Now() time.Time {
	if t.step == 0 {
		return time.Now()
	}
	return t.base.Add(time.Duration(t.n.Load()) * t.step)
}

// zipfClient is one closed-loop client: it owns one tenant and draws
// one-block requests Zipf(1.1) over that tenant's span, 3 reads to 1
// write. Its stream depends only on the seed and the client index.
type zipfClient struct {
	st             opStore
	tenant         int
	server, volume int
	rng            *rand.Rand
	zipf           *rand.Zipf
	seq            int64
	buf            []byte
}

func newZipfClients(seed int64, stores []opStore, tenants []int, ten *tenantMap, span uint64) []*zipfClient {
	cs := make([]*zipfClient, len(stores))
	for i := range stores {
		rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
		id := ten.ids[tenants[i]]
		cs[i] = &zipfClient{
			st: stores[i], tenant: tenants[i], server: id[0], volume: id[1],
			rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, span-1), buf: make([]byte, block.Size),
		}
	}
	return cs
}

// roundSlices is how many slices a closed-loop round's measured phase is
// cut into; rates are computed per slice.
const roundSlices = 7

// phase is one stretch of closed-loop load: a warm-up (no slices) or the
// measured phase.
type phase struct {
	sh         *shadow
	tk         *ticker
	timeEvery  int64 // time 1 in timeEvery requests
	tr         *tracer
	traceEvery int64 // record spans for 1 in traceEvery requests (traced runs)
	record     bool
	contains   func(server, volume int, off uint64) bool // residency probe

	from, to int64       // request numbers of the phase
	sliceLen int64       // requests per slice; 0 in warm-up
	starts   []time.Time // when each slice's first request was issued
}

// clientOut is one client's share of a phase.
type clientOut struct {
	attempted, failed int64
	reads, writes     []int64 // timed request latencies, ns
	recs              []opRec
}

// run drives every client until the phase's requests have all been
// issued, cutting them into nSlices slices, and returns the clients'
// outputs and the time the last request returned.
func (ph *phase) run(cs []*zipfClient, requests int64, nSlices int) ([]clientOut, time.Time) {
	ph.from = ph.tk.n.Load()
	ph.to = ph.from + requests
	ph.sliceLen, ph.starts = 0, nil
	if nSlices > 0 {
		ph.sliceLen = (requests + int64(nSlices) - 1) / int64(nSlices)
		ph.starts = make([]time.Time, (requests+ph.sliceLen-1)/ph.sliceLen)
	}
	outs := make([]clientOut, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(c *zipfClient, out *clientOut) {
			defer wg.Done()
			for {
				b := ph.tk.n.Add(ticketBatch) - ticketBatch
				if b >= ph.to {
					return
				}
				for t := b; t < min(b+ticketBatch, ph.to); t++ {
					ph.issue(c, t-ph.from, out)
				}
			}
		}(c, &outs[i])
	}
	wg.Wait()
	return outs, time.Now()
}

// issue makes the phase's i-th request from client c.
func (ph *phase) issue(c *zipfClient, i int64, out *clientOut) {
	n := c.zipf.Uint64()
	write := c.rng.Intn(4) == 0
	c.seq++
	off := n * block.Size
	if write {
		ph.sh.write(c.buf, c.tenant, n)
	}
	measured := ph.sliceLen > 0
	if measured && i%ph.sliceLen == 0 {
		ph.starts[i/ph.sliceLen] = time.Now()
	}
	timed := measured && c.seq%ph.timeEvery == 0
	traced := ph.tr != nil && c.seq%ph.traceEvery == 0
	var beBefore int64
	resident := true
	if ph.record {
		beBefore = ph.tr.backendByTenant[c.tenant].Load()
		if write {
			resident = ph.contains(c.server, c.volume, off)
		}
	}
	if traced {
		ph.tr.req[c.tenant].Store(c.seq)
	}
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	var s0 int64
	if traced {
		s0 = ph.tr.now()
	}
	var err error
	kind := kindRead
	if write {
		kind = kindWrite
		err = c.st.WriteAt(c.server, c.volume, c.buf, off)
	} else {
		err = c.st.ReadAt(c.server, c.volume, c.buf, off)
	}
	if traced {
		ph.tr.record(levelClient, c.server, c.volume, off, kind, s0)
		ph.tr.req[c.tenant].Store(0)
	}
	if timed {
		d := int64(time.Since(t0))
		if write {
			out.writes = append(out.writes, d)
		} else {
			out.reads = append(out.reads, d)
		}
	}
	out.attempted++
	if err != nil || (!write && !ph.sh.check(c.buf, c.tenant, n)) {
		out.failed++
	}
	if ph.record && len(out.recs) < recCap {
		rec := opRec{at: ph.tk.Now().UnixNano(), key: block.MakeKey(c.server, c.volume, n), n: 1, kind: kind}
		if write {
			rec.miss = !resident
		} else {
			rec.miss = ph.tr.backendByTenant[c.tenant].Load() != beBefore
		}
		if rec.miss {
			rec.admit = ph.contains(c.server, c.volume, off)
		}
		out.recs = append(out.recs, rec)
	}
}

// warm runs a warm-up phase of the given requests and counts its
// requests into r.
func (ph *phase) warm(cs []*zipfClient, requests int64, r *roundResult) {
	outs, _ := ph.run(cs, requests, 0)
	for _, o := range outs {
		r.attempted += o.attempted
		r.failed += o.failed
	}
}

// measure runs the measured phase of the given requests and folds the
// client outputs into r.
func (ph *phase) measure(cs []*zipfClient, requests int64, r *roundResult) {
	outs, end := ph.run(cs, requests, roundSlices)
	r.slices = make([]slice, len(ph.starts))
	for j := range r.slices {
		next := end
		if j+1 < len(ph.starts) {
			next = ph.starts[j+1]
		}
		r.slices[j] = slice{ops: min(ph.sliceLen, requests-int64(j)*ph.sliceLen), elapsed: next.Sub(ph.starts[j])}
	}
	for _, o := range outs {
		r.attempted += o.attempted
		r.failed += o.failed
		r.reads = append(r.reads, o.reads...)
		r.writes = append(r.writes, o.writes...)
		r.ops = append(r.ops, o.recs...)
	}
}

// requestsFor is how many requests one closed-loop round measures: the
// run's seconds split over its rounds at the workload's nominal rate.
func requestsFor(p params, perSecond float64) int64 {
	return max(int64(p.seconds/float64(p.rounds)*perSecond), roundSlices)
}
