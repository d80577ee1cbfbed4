package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span levels, outermost first. In-process workloads have only the
// client and backend levels.
const (
	levelClient = iota
	levelGateway
	levelNode
	levelBackend
	nLevels
)

var levelNames = [nLevels]string{"client", "gateway", "node", "backend"}

const (
	kindRead uint8 = iota
	kindWrite
)

// span is one call across a layer boundary. Times are nanoseconds since
// the tracer's base. Req is the benchmark client's sequence number of the
// request the call served: the interfaces carry no request id, but each
// client owns its tenant and has at most one request in flight, so a
// wrapper takes it from the tracer's per-tenant slot. The analysis matches
// a child to its parent by tenant and time containment.
type span struct {
	Start, End int64
	Off        uint64
	Req        int64
	Tenant     int32
	Kind       uint8
}

// tracer records spans in memory for the traced run and writes them out
// at the end. Every call is counted and timed; a span is kept only while
// its tenant's current client request is sampled.
type tracer struct {
	base time.Time
	ten  *tenantMap
	req  []atomic.Int64 // per tenant: the sampled request in flight, 0 for none

	mu    [nLevels]sync.Mutex
	spans [nLevels][]span
	calls [nLevels]atomic.Int64
	busy  [nLevels]atomic.Int64 // summed call time, ns

	backendByTenant []atomic.Int64 // backend calls per tenant, sampled or not
}

func newTracer(ten *tenantMap) *tracer {
	n := len(ten.ids)
	return &tracer{
		base:            time.Now(),
		ten:             ten,
		req:             make([]atomic.Int64, n),
		backendByTenant: make([]atomic.Int64, n),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// record closes a call that started at start (from t.now).
func (t *tracer) record(level, server, volume int, off uint64, kind uint8, start int64) {
	end := t.now()
	t.calls[level].Add(1)
	t.busy[level].Add(end - start)
	ti := t.ten.of(server, volume)
	if ti < 0 {
		return
	}
	if level == levelBackend {
		t.backendByTenant[ti].Add(1)
	}
	req := t.req[ti].Load()
	if req == 0 {
		return
	}
	t.mu[level].Lock()
	t.spans[level] = append(t.spans[level], span{Start: start, End: end, Off: off, Req: req, Tenant: int32(ti), Kind: kind})
	t.mu[level].Unlock()
}

// beginMeasure drops the spans recorded during set-up and warm-up and
// snapshots the call counters.
func (r *roundResult) beginMeasure() {
	if r.tr == nil {
		return
	}
	for l := 0; l < nLevels; l++ {
		r.tr.mu[l].Lock()
		r.tr.spans[l] = nil
		r.tr.mu[l].Unlock()
		r.calls[l] = -r.tr.calls[l].Load()
		r.busy[l] = -r.tr.busy[l].Load()
	}
}

// endMeasure leaves the measured phase's call counts and times in r.
func (r *roundResult) endMeasure() {
	if r.tr == nil {
		return
	}
	for l := 0; l < nLevels; l++ {
		r.calls[l] += r.tr.calls[l].Load()
		r.busy[l] += r.tr.busy[l].Load()
	}
}

// write dumps every recorded span to path, one JSON array per line:
// [level, tenant, request, kind (0 read, 1 write), offset, start ns,
// end ns].
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for l := 0; l < nLevels; l++ {
		for _, s := range t.spans[l] {
			fmt.Fprintf(w, "[%q,%d,%d,%d,%d,%d,%d]\n", levelNames[l], s.Tenant, s.Req, s.Kind, s.Off, s.Start, s.End)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// breakdown is what the span analysis derives from one traced run.
type breakdown struct {
	ops      int               // sampled client operations
	opNS     float64           // summed client op time
	selfNS   [nLevels]float64  // summed blocking-path self time per level
	clientNS map[int32][]int64 // client op durations by tenant
	levelNS  [nLevels][]int64  // span durations by level
	wireNS   []int64           // client op time minus gateway time, per op
	coreHit  []int64           // core read calls that reached no backend
	coreMiss []int64           // core read calls that reached the backend
	coreWr   []int64           // core write calls
	coreNS   float64           // summed core call time
	coreBeNS float64           // summed backend time inside core calls
	spanCnt  [nLevels]int
	// matched counts child spans matched to a client op by containment;
	// misattributed counts those whose request id names another op.
	matched, misattributed int
}

// analyze attributes each sampled client operation's time to levels. For
// one operation, U(l) is the time during which at least one span of level
// l or above was active; the self time of level l is U(l) − U(l+1). The
// self times telescope to the client's op time, and the client level's
// share is the leftover no inner span accounts for. coreLevel names the
// level whose spans are core.Store calls.
func (t *tracer) analyze(coreLevel int) breakdown {
	b := breakdown{clientNS: make(map[int32][]int64)}
	var byTenant [nLevels]map[int32][]span
	for l := 0; l < nLevels; l++ {
		byTenant[l] = make(map[int32][]span)
		for _, s := range t.spans[l] {
			byTenant[l][s.Tenant] = append(byTenant[l][s.Tenant], s)
			b.levelNS[l] = append(b.levelNS[l], s.End-s.Start)
		}
		b.spanCnt[l] = len(t.spans[l])
		for _, ss := range byTenant[l] {
			sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		}
	}
	for tenant, ops := range byTenant[levelClient] {
		var pos [nLevels]int
		for _, op := range ops {
			var inside [nLevels][]span
			inside[levelClient] = []span{op}
			for l := levelClient + 1; l < nLevels; l++ {
				ss := byTenant[l][tenant]
				for pos[l] < len(ss) && ss[pos[l]].Start < op.Start {
					pos[l]++
				}
				for pos[l] < len(ss) && ss[pos[l]].Start <= op.End {
					if c := ss[pos[l]]; c.End <= op.End {
						inside[l] = append(inside[l], c)
						b.matched++
						if c.Req != op.Req {
							b.misattributed++
						}
					}
					pos[l]++
				}
			}
			var cover [nLevels + 1]int64
			var acc []span
			for l := nLevels - 1; l >= 0; l-- {
				acc = append(acc, inside[l]...)
				cover[l] = unionLen(acc)
			}
			for l := 0; l < nLevels; l++ {
				b.selfNS[l] += float64(cover[l] - cover[l+1])
			}
			d := op.End - op.Start
			b.ops++
			b.opNS += float64(d)
			b.clientNS[tenant] = append(b.clientNS[tenant], d)
			if len(inside[levelGateway]) > 0 {
				b.wireNS = append(b.wireNS, d-unionLen(inside[levelGateway]))
			}
			for _, c := range inside[coreLevel] {
				cd := c.End - c.Start
				var be []span
				for _, s := range inside[levelBackend] {
					if s.Start >= c.Start && s.End <= c.End {
						be = append(be, s)
					}
				}
				b.coreNS += float64(cd)
				b.coreBeNS += float64(unionLen(be))
				switch {
				case c.Kind == kindWrite:
					b.coreWr = append(b.coreWr, cd)
				case len(be) == 0:
					b.coreHit = append(b.coreHit, cd)
				default:
					b.coreMiss = append(b.coreMiss, cd)
				}
			}
		}
	}
	return b
}

// unionLen is the total length covered by the spans' intervals.
func unionLen(ss []span) int64 {
	if len(ss) == 0 {
		return 0
	}
	iv := make([]span, len(ss))
	copy(iv, ss)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total int64
	lo, hi := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return total + hi - lo
}

// describe prints the per-level self times for the run record.
func (b breakdown) describe() string {
	if b.ops == 0 {
		return "no sampled ops"
	}
	s := fmt.Sprintf("%d sampled ops, mean op %.2f us; self time per op:", b.ops, b.opNS/float64(b.ops)/1e3)
	for l := 0; l < nLevels; l++ {
		s += fmt.Sprintf(" %s %.2f us", levelNames[l], b.selfNS[l]/float64(b.ops)/1e3)
	}
	return s + fmt.Sprintf("; %d child spans matched by containment, %d of them to another request", b.matched, b.misattributed)
}
