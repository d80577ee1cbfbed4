package main

import (
	"fmt"
	"sync"

	"repro/internal/appliance"
	"repro/internal/block"
	"repro/internal/core"
)

// tenantMap gives every (server, volume) the benchmark drives a dense
// index, used by the shadow, the router and the tracer alike.
type tenantMap struct {
	idx [block.MaxServers][block.MaxVolumes]int32 // index+1; 0 = unknown
	ids [][2]int
}

func (m *tenantMap) add(server, volume int) int {
	if i := m.idx[server][volume]; i != 0 {
		return int(i - 1)
	}
	m.ids = append(m.ids, [2]int{server, volume})
	m.idx[server][volume] = int32(len(m.ids))
	return len(m.ids) - 1
}

// of returns the tenant index, or -1 for a volume the benchmark never added.
func (m *tenantMap) of(server, volume int) int {
	if server < 0 || server >= block.MaxServers || volume < 0 || volume >= block.MaxVolumes {
		return -1
	}
	return int(m.idx[server][volume]) - 1
}

// disk is one volume of the stand-in ensemble. The benchmark only ever
// writes stamps, which it can regenerate from a version number, so a
// block holding a stamp is kept as 4 bytes; any other content is kept
// verbatim. Either way a read returns exactly the bytes last written.
// (store.Mem keeps a 64 KiB extent per touched extent, which for the
// ensemble trace's scattered writes comes to gigabytes.)
type disk struct {
	mu     sync.RWMutex
	tenant int
	vers   []uint32          // stamp version per block; rawBlock: see raw
	raw    map[uint64][]byte // blocks whose content is not a stamp
}

const rawBlock = ^uint32(0)

func (d *disk) span(p []byte, off uint64) (uint64, error) {
	if len(p)%block.Size != 0 || off%block.Size != 0 {
		return 0, fmt.Errorf("perfbench: unaligned I/O (%d bytes at %d)", len(p), off)
	}
	first := off / block.Size
	if first+uint64(len(p)/block.Size) > uint64(len(d.vers)) {
		return 0, fmt.Errorf("perfbench: I/O past the end of the volume (%d bytes at %d)", len(p), off)
	}
	return first, nil
}

func (d *disk) ReadAt(p []byte, off uint64) error {
	first, err := d.span(p, off)
	if err != nil {
		return err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i := 0; i*block.Size < len(p); i++ {
		n, b := first+uint64(i), p[i*block.Size:(i+1)*block.Size]
		switch v := d.vers[n]; v {
		case rawBlock:
			copy(b, d.raw[n])
		case 0:
			clear(b)
		default:
			stamp(b, d.tenant, n, v)
		}
	}
	return nil
}

func (d *disk) WriteAt(p []byte, off uint64) error {
	first, err := d.span(p, off)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := 0; i*block.Size < len(p); i++ {
		n, b := first+uint64(i), p[i*block.Size:(i+1)*block.Size]
		if v, ok := stampVersion(b, d.tenant, n); ok && v != rawBlock {
			d.vers[n] = v
			delete(d.raw, n)
			continue
		}
		d.vers[n] = rawBlock
		d.raw[n] = append([]byte(nil), b...)
	}
	return nil
}

// bytes is the memory the volume holds.
func (d *disk) bytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.vers))*4 + int64(len(d.raw))*block.Size
}

// router is the stand-in ensemble: each (server, volume) has its own
// disk with its own lock, as a real ensemble of separate servers has
// separate disks, so two tenants' backend I/O never serializes on one
// lock.
type router struct {
	ten   *tenantMap
	disks []*disk
}

func newRouter(ten *tenantMap, capacityBytes []uint64) *router {
	r := &router{ten: ten, disks: make([]*disk, len(ten.ids))}
	for t := range ten.ids {
		r.disks[t] = &disk{tenant: t, vers: make([]uint32, capacityBytes[t]/block.Size), raw: map[uint64][]byte{}}
	}
	return r
}

func (r *router) disk(server, volume int) (*disk, error) {
	t := r.ten.of(server, volume)
	if t < 0 {
		return nil, fmt.Errorf("perfbench: no volume %d/%d", server, volume)
	}
	return r.disks[t], nil
}

func (r *router) ReadAt(server, volume int, p []byte, off uint64) error {
	d, err := r.disk(server, volume)
	if err != nil {
		return err
	}
	return d.ReadAt(p, off)
}

func (r *router) WriteAt(server, volume int, p []byte, off uint64) error {
	d, err := r.disk(server, volume)
	if err != nil {
		return err
	}
	return d.WriteAt(p, off)
}

// bytes is the memory the stand-in ensemble holds; the heap figure
// excludes it.
func (r *router) bytes() int64 {
	var n int64
	for _, d := range r.disks {
		n += d.bytes()
	}
	return n
}

// tracedBackend is the traced run's wrapper under every store: it times
// each backend call and records a span when the calling tenant's current
// request is sampled.
type tracedBackend struct {
	inner core.Backend
	tr    *tracer
}

func (b *tracedBackend) ReadAt(server, volume int, p []byte, off uint64) error {
	t0 := b.tr.now()
	err := b.inner.ReadAt(server, volume, p, off)
	b.tr.record(levelBackend, server, volume, off, kindRead, t0)
	return err
}

func (b *tracedBackend) WriteAt(server, volume int, p []byte, off uint64) error {
	t0 := b.tr.now()
	err := b.inner.WriteAt(server, volume, p, off)
	b.tr.record(levelBackend, server, volume, off, kindWrite, t0)
	return err
}

// tracedStore is the traced run's wrapper around an appliance.BlockStore
// (a node's core.Store or the gateway's cluster.Client). It forwards
// every method, ReadPinned and the vector calls included, so the server
// keeps its zero-copy and batched paths.
type tracedStore struct {
	inner appliance.BlockStore
	tr    *tracer
	level int
}

func (s *tracedStore) ReadAt(server, volume int, p []byte, off uint64) error {
	t0 := s.tr.now()
	err := s.inner.ReadAt(server, volume, p, off)
	s.tr.record(s.level, server, volume, off, kindRead, t0)
	return err
}

func (s *tracedStore) WriteAt(server, volume int, p []byte, off uint64) error {
	t0 := s.tr.now()
	err := s.inner.WriteAt(server, volume, p, off)
	s.tr.record(s.level, server, volume, off, kindWrite, t0)
	return err
}

func (s *tracedStore) ReadVec(vecs []core.IOVec) error {
	t0 := s.tr.now()
	err := s.inner.ReadVec(vecs)
	if len(vecs) > 0 {
		s.tr.record(s.level, vecs[0].Server, vecs[0].Volume, vecs[0].Off, kindRead, t0)
	}
	return err
}

func (s *tracedStore) WriteVec(vecs []core.IOVec) error {
	t0 := s.tr.now()
	err := s.inner.WriteVec(vecs)
	if len(vecs) > 0 {
		s.tr.record(s.level, vecs[0].Server, vecs[0].Volume, vecs[0].Off, kindWrite, t0)
	}
	return err
}

func (s *tracedStore) ReadPinned(server, volume, n int, off uint64) *core.PinnedRead {
	t0 := s.tr.now()
	pr := s.inner.ReadPinned(server, volume, n, off)
	if pr != nil {
		s.tr.record(s.level, server, volume, off, kindRead, t0)
	}
	return pr
}

func (s *tracedStore) Stats() core.Stats  { return s.inner.Stats() }
func (s *tracedStore) RotateEpoch() error { return s.inner.RotateEpoch() }
func (s *tracedStore) Flush() error       { return s.inner.Flush() }
func (s *tracedStore) Invalidate(server, volume int, off uint64, length int) (int, error) {
	return s.inner.Invalidate(server, volume, off, length)
}
