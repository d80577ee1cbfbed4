package appliance

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/sieve"
	"repro/internal/store"
)

// TestProtocolParity runs every op through a ProtocolV1 client and a
// ProtocolV2 client against one server. Both framings share the server's
// op executor and the client's body reader, so each case must give the
// same result and the same error text on both. Cases that change cache
// state work on a separate region per client (region i starts at
// i*regionBytes) so the two clients see the same state.
func TestProtocolParity(t *testing.T) {
	const regionBytes = 1 << 20
	be := store.NewMem()
	be.AddVolume(0, 0, 4*regionBytes)
	st, err := core.Open(be, core.Options{
		CacheBytes: 256 * block.Size,
		// Admit on the first miss, so a second read of a block hits.
		SieveC: sieve.CConfig{IMCTSize: 1 << 12, T1: 1, T2: 1, Window: time.Hour, Subwindows: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(l) }()
	t.Cleanup(func() {
		srv.Close()
		<-done
		st.Close()
	})
	var clients [2]*Client
	for i, proto := range []int{ProtocolV1, ProtocolV2} {
		c, err := DialWith(l.Addr().String(), DialOptions{Protocol: proto, Timeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}

	pattern := func(off uint64, n int) []byte {
		p := make([]byte, n)
		fillPat(p, off%regionBytes)
		return p
	}
	// seed writes off's pattern to the ensemble behind the cache.
	seed := func(off uint64, n int) {
		if err := be.WriteAt(0, 0, pattern(off, n), off); err != nil {
			t.Fatal(err)
		}
	}
	// read reports whether the client read off's pattern and how many
	// blocks the store counted as hits.
	read := func(c *Client, off uint64, n int) (string, error) {
		before := st.Stats().ReadHits
		p := make([]byte, n)
		if err := c.ReadAt(0, 0, p, off); err != nil {
			return "", err
		}
		hits := st.Stats().ReadHits - before
		return fmt.Sprintf("match=%v hits=%d", bytes.Equal(p, pattern(off, n)), hits), nil
	}

	for _, tc := range []struct {
		name string
		run  func(c *Client, base uint64) (string, error)
	}{
		{"read hit", func(c *Client, base uint64) (string, error) {
			seed(base, 2*block.Size)
			for i := 0; i < 2; i++ { // miss, admit, then resident
				if _, err := read(c, base, 2*block.Size); err != nil {
					return "", err
				}
			}
			return read(c, base, 2*block.Size)
		}},
		{"read miss", func(c *Client, base uint64) (string, error) {
			seed(base+8*block.Size, block.Size)
			return read(c, base+8*block.Size, block.Size)
		}},
		{"zero-length read", func(c *Client, base uint64) (string, error) {
			return read(c, base, 0)
		}},
		{"read past volume end", func(c *Client, base uint64) (string, error) {
			return read(c, 4*regionBytes, block.Size)
		}},
		{"write", func(c *Client, base uint64) (string, error) {
			off := base + 16*block.Size
			if err := c.WriteAt(0, 0, pattern(off, 3*block.Size), off); err != nil {
				return "", err
			}
			got := make([]byte, 3*block.Size)
			if err := be.ReadAt(0, 0, got, off); err != nil {
				return "", err
			}
			return fmt.Sprintf("ensemble match=%v", bytes.Equal(got, pattern(off, 3*block.Size))), nil
		}},
		{"stats", func(c *Client, base uint64) (string, error) {
			s, err := c.Stats()
			return fmt.Sprintf("capacity=%d", s.CapacityBlocks), err
		}},
		{"rotate", func(c *Client, base uint64) (string, error) {
			return "", c.RotateEpoch()
		}},
		{"invalidate", func(c *Client, base uint64) (string, error) {
			off := base + 32*block.Size
			seed(off, 4*block.Size)
			for i := 0; i < 2; i++ {
				if _, err := read(c, off, 4*block.Size); err != nil {
					return "", err
				}
			}
			n, err := c.Invalidate(0, 0, off, 4*block.Size)
			return fmt.Sprintf("dropped=%d", n), err
		}},
		{"flush", func(c *Client, base uint64) (string, error) {
			return "", c.Flush()
		}},
		{"read out-of-range server", func(c *Client, base uint64) (string, error) {
			return "", c.ReadAt(block.MaxServers, 0, make([]byte, block.Size), 0)
		}},
		{"write out-of-range volume", func(c *Client, base uint64) (string, error) {
			return "", c.WriteAt(0, block.MaxVolumes, make([]byte, block.Size), 0)
		}},
		{"invalidate out-of-range server", func(c *Client, base uint64) (string, error) {
			n, err := c.Invalidate(block.MaxServers, 0, 0, block.Size)
			return fmt.Sprintf("dropped=%d", n), err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res [2]string
			var errs [2]string
			for i, c := range clients {
				r, err := tc.run(c, uint64(i)*regionBytes)
				res[i] = r
				if err != nil {
					errs[i] = err.Error()
				}
			}
			if res[0] != res[1] || errs[0] != errs[1] {
				t.Fatalf("v1 gave (%q, err %q), v2 gave (%q, err %q)", res[0], errs[0], res[1], errs[1])
			}
			t.Logf("both: %q err %q", res[0], errs[0])
		})
	}
	// Every case above must have left both connections usable.
	for i, c := range clients {
		if _, err := c.Stats(); err != nil {
			t.Fatalf("client %d unusable after the cases: %v", i, err)
		}
	}
}

// TestIdleGapLongerThanIOTimeout pins one deadline rule for both
// framings: IOTimeout bounds a request's wire I/O once its header has
// arrived and is cleared while the connection sits idle, so with no
// IdleTimeout an idle gap longer than IOTimeout must not drop the
// connection: the last request's deadline must not stay armed through
// the gap in either framing.
func TestIdleGapLongerThanIOTimeout(t *testing.T) {
	_, addr := startServerWith(t, ServerOptions{IOTimeout: 100 * time.Millisecond})
	for _, proto := range []int{ProtocolV1, ProtocolV2} {
		t.Run(fmt.Sprintf("v%d", proto), func(t *testing.T) {
			c, err := DialWith(addr, DialOptions{Protocol: proto})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			data := make([]byte, block.Size)
			if err := c.WriteAt(0, 0, data, 0); err != nil {
				t.Fatal(err)
			}
			time.Sleep(300 * time.Millisecond)
			if err := c.ReadAt(0, 0, data, 0); err != nil {
				t.Fatalf("op after an idle gap longer than IOTimeout: %v", err)
			}
		})
	}
}

// TestIdleTimeoutWithIOTimeoutDropsIdlePeer is the other half of that
// rule: with both bounds set, an idle connection of either framing is
// dropped after IdleTimeout, long before its last request's IOTimeout.
func TestIdleTimeoutWithIOTimeoutDropsIdlePeer(t *testing.T) {
	srv, addr := startServerWith(t, ServerOptions{IdleTimeout: 50 * time.Millisecond, IOTimeout: time.Minute})
	for _, proto := range []int{ProtocolV1, ProtocolV2} {
		t.Run(fmt.Sprintf("v%d", proto), func(t *testing.T) {
			c, err := DialWith(addr, DialOptions{Protocol: proto})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.WriteAt(0, 0, make([]byte, block.Size), 0); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for srv.StatsSnapshot().ActiveConns != 0 {
				if time.Now().After(deadline) {
					t.Fatal("idle connection was never dropped")
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
