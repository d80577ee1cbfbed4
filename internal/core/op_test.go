package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
)

// TestOutOfRangeIDs: ids that do not fit a block.Key are a request error
// at every entry point — a malformed trace or a stray caller must get
// ErrRange back, not crash the process inside block.MakeKey.
func TestOutOfRangeIDs(t *testing.T) {
	s, err := Open(testBackend(), Options{CacheBytes: 64 * block.Size, TrackLatency: true, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, block.Size)
	for _, id := range []struct{ server, volume int }{
		{-1, 0}, {block.MaxServers, 0}, {0, -1}, {0, block.MaxVolumes},
	} {
		t.Run(fmt.Sprintf("server=%d/volume=%d", id.server, id.volume), func(t *testing.T) {
			vec := []IOVec{{Server: id.server, Volume: id.volume, P: buf}}
			for _, c := range []struct {
				name string
				op   func() error
			}{
				{"ReadAt", func() error { return s.ReadAt(id.server, id.volume, buf, 0) }},
				{"WriteAt", func() error { return s.WriteAt(id.server, id.volume, buf, 0) }},
				{"ReadVec", func() error { return s.ReadVec(vec) }},
				{"WriteVec", func() error { return s.WriteVec(vec) }},
				{"Invalidate", func() error { _, err := s.Invalidate(id.server, id.volume, 0, block.Size); return err }},
			} {
				if err := c.op(); !errors.Is(err, ErrRange) {
					t.Errorf("%s = %v, want ErrRange", c.name, err)
				}
			}
			if pr := s.ReadPinned(id.server, id.volume, block.Size, 0); pr != nil {
				t.Error("ReadPinned pinned blocks of an out-of-range id")
			}
			if s.Contains(id.server, id.volume, 0) {
				t.Error("Contains reported an out-of-range id cached")
			}
		})
	}
	st := s.Stats()
	if st.Reads+st.Writes+st.ReadLatency.Ops+st.WriteLatency.Ops != 0 || len(s.Traces()) != 0 {
		t.Errorf("rejected requests were counted: %d reads, %d writes, latency %+v/%+v, %d traces",
			st.Reads, st.Writes, st.ReadLatency, st.WriteLatency, len(s.Traces()))
	}
}

// TestOneClockReadPerOp pins the op path's single injected-clock read: a
// hit, a miss and a write each call Options.Now exactly once, which then
// serves rotation, tenant repartition, sieve admission and the endurance
// charge alike.
func TestOneClockReadPerOp(t *testing.T) {
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"SieveStore-D+tenants", Options{Variant: VariantD, DThreshold: 1, TenantTracking: true}},
		{"SieveStore-C+tenants+tier", Options{SieveC: quickSieve(), TenantTracking: true, RAMTierBytes: 8 * block.Size}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var calls atomic.Int64
			base := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
			opts := c.opts
			opts.CacheBytes = 64 * block.Size
			opts.Now = func() time.Time { calls.Add(1); return base }
			s, err := Open(testBackend(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			buf := make([]byte, block.Size)
			read := func(blk uint64) func() error {
				return func() error { return s.ReadAt(0, 0, buf, blk*block.Size) }
			}
			once := func(name string, op func() error) {
				t.Helper()
				calls.Store(0)
				if err := op(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got := calls.Load(); got != 1 {
					t.Errorf("%s read the clock %d times, want 1", name, got)
				}
			}

			// Make block 0 resident: the D store admits at the epoch
			// boundary, the C store on its sieve's third miss.
			for i := 0; i < 3 && !s.Contains(0, 0, 0); i++ {
				if err := read(0)(); err != nil {
					t.Fatal(err)
				}
				if opts.Variant == VariantD {
					if err := s.RotateEpoch(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if !s.Contains(0, 0, 0) {
				t.Fatal("setup: block 0 not admitted")
			}
			hits := s.Stats().ReadHits
			once("shard hit", read(0))
			if st := s.Stats(); st.ReadHits != hits+1 || st.TierHits != 0 {
				t.Fatalf("setup: want one shard hit, got %+v", st)
			}
			if opts.RAMTierBytes > 0 {
				// The second SSD hit promotes the block; the next read is
				// served by the RAM tier.
				if err := read(0)(); err != nil {
					t.Fatal(err)
				}
				once("tier hit", read(0))
				if st := s.Stats(); st.TierHits != 1 {
					t.Fatalf("setup: want one tier hit, got %d", st.TierHits)
				}
			}
			once("miss", read(7))
			once("write", func() error { return s.WriteAt(0, 0, buf, 0) })
			once("write miss", func() error { return s.WriteAt(0, 0, buf, 9*block.Size) })
		})
	}
}

// TestHitPathAllocs fences the hit path's allocations on a production-
// shaped store (RAM tier, tenants, latency tracking): the per-op context
// must stay on the caller's stack. The bounds are the counts measured
// before the op path was staged (go1.24): a write hit allocates its
// shard grouping, reservation slices and flight; a pinned read its
// PinnedRead, view slices and pin record.
func TestHitPathAllocs(t *testing.T) {
	open := func(promoteHits int) *Store {
		t.Helper()
		s, err := Open(testBackend(), Options{
			CacheBytes:      64 * block.Size,
			SieveC:          quickSieve(),
			RAMTierBytes:    8 * block.Size,
			TierPromoteHits: promoteHits,
			TenantTracking:  true,
			TrackLatency:    true,
			Now:             newFakeClock().Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		buf := make([]byte, block.Size)
		for i := 0; i < 4; i++ {
			if err := s.ReadAt(0, 0, buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		if !s.Contains(0, 0, 0) {
			t.Fatal("setup: block 0 not admitted")
		}
		return s
	}
	buf := make([]byte, block.Size)
	for _, c := range []struct {
		name        string
		promoteHits int
		max         float64
		op          func(s *Store)
	}{
		{"ReadAt shard hit", 1 << 30, 0, func(s *Store) { s.ReadAt(0, 0, buf, 0) }},
		{"ReadAt tier hit", 1, 0, func(s *Store) { s.ReadAt(0, 0, buf, 0) }},
		{"WriteAt hit", 1 << 30, 6, func(s *Store) { s.WriteAt(0, 0, buf, 0) }},
		{"ReadPinned+Release", 1 << 30, 4, func(s *Store) { s.ReadPinned(0, 0, block.Size, 0).Release() }},
	} {
		s := open(c.promoteHits)
		if got := testing.AllocsPerRun(100, func() { c.op(s) }); got > c.max {
			t.Errorf("%s: %.1f allocations per op, want ≤ %.0f", c.name, got, c.max)
		}
		st := s.Stats()
		if c.name == "ReadAt tier hit" && st.TierHits == 0 {
			t.Errorf("%s: no tier hits", c.name)
		}
		if c.name == "ReadAt shard hit" && st.TierHits != 0 {
			t.Errorf("%s: %d tier hits, want shard hits only", c.name, st.TierHits)
		}
	}
}
