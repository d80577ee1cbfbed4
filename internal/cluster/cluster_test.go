package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/sieve"
)

func fillByte(p []byte, b byte) {
	for i := range p {
		p[i] = b
	}
}

func TestClusterReadWriteRoundTrip(t *testing.T) {
	_, _, cl := newTestRing(t, 3, Config{Replicas: 2, PlacementBlocks: 4})
	const span = 16 * block.Size
	wr := make([]byte, span)
	for i := range wr {
		wr[i] = byte(i*7 + 3)
	}
	if err := cl.WriteAt(0, 0, wr, blockAt(32)); err != nil {
		t.Fatal(err)
	}
	rd := make([]byte, span)
	if err := cl.ReadAt(0, 0, rd, blockAt(32)); err != nil {
		t.Fatal(err)
	}
	for i := range wr {
		if rd[i] != wr[i] {
			t.Fatalf("byte %d: got %d want %d", i, rd[i], wr[i])
		}
	}
	st := cl.ClusterStats()
	if st.Writes != 1 || st.Reads != 1 || st.WriteBlocks != 16 || st.ReadBlocks != 16 {
		t.Fatalf("counters off: %+v", st)
	}
}

func TestClusterAlignmentRejected(t *testing.T) {
	_, _, cl := newTestRing(t, 2, Config{Replicas: 2})
	buf := make([]byte, block.Size)
	if err := cl.WriteAt(0, 0, buf, 100); !errors.Is(err, ErrAlignment) {
		t.Fatalf("unaligned offset: got %v, want ErrAlignment", err)
	}
	if err := cl.ReadAt(0, 0, buf[:100], 0); !errors.Is(err, ErrAlignment) {
		t.Fatalf("unaligned length: got %v, want ErrAlignment", err)
	}
	if err := cl.ReadAt(0, 0, nil, 0); !errors.Is(err, ErrAlignment) {
		t.Fatalf("empty read: got %v, want ErrAlignment", err)
	}
}

func TestClusterWriteQuorum(t *testing.T) {
	_, nodes, cl := newTestRing(t, 2, Config{Replicas: 2, WriteQuorum: 2, WriteBack: true, PlacementBlocks: 4})
	buf := make([]byte, block.Size)
	fillByte(buf, 1)
	if err := cl.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatalf("healthy W=2 write: %v", err)
	}
	nodes[1].kill()
	fillByte(buf, 2)
	if err := cl.WriteAt(0, 0, buf, 0); !errors.Is(err, ErrWriteQuorum) {
		t.Fatalf("W=2 with a node down: got %v, want ErrWriteQuorum", err)
	}
	if st := cl.ClusterStats(); st.QuorumFailures == 0 || st.Hinted == 0 {
		t.Fatalf("expected quorum failure + hint counters to move: %+v", st)
	}
	// The failed write still reached the surviving replica and the hint
	// queue; after recovery the quorum is available again.
	nodes[1].restart()
	waitNodeState(t, cl, 1, "up", 10*time.Second)
	settle(t, cl, 10*time.Second)
	fillByte(buf, 3)
	if err := cl.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatalf("W=2 write after recovery: %v", err)
	}
}

func TestClusterReadFallthrough(t *testing.T) {
	_, nodes, cl := newTestRing(t, 3, Config{Replicas: 2, PlacementBlocks: 2})
	const blocks = 32
	buf := make([]byte, block.Size)
	for n := uint64(0); n < blocks; n++ {
		fillByte(buf, byte(n+1))
		if err := cl.WriteAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatal(err)
		}
	}
	nodes[2].kill()
	for n := uint64(0); n < blocks; n++ {
		if err := cl.ReadAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatalf("read block %d with a node down: %v", n, err)
		}
		if buf[0] != byte(n+1) {
			t.Fatalf("block %d: got %d want %d", n, buf[0], byte(n+1))
		}
	}
}

func TestClusterJoinRebalances(t *testing.T) {
	_, nodes, cl := newTestRing(t, 2, Config{Replicas: 2, WriteBack: true, PlacementBlocks: 2})
	const blocks = 64
	buf := make([]byte, block.Size)
	for n := uint64(0); n < blocks; n++ {
		fillByte(buf, byte(n+1))
		if err := cl.WriteAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatal(err)
		}
	}
	joiner := startTNode(t, nodes[0].be, true)
	id, err := cl.Join(joiner.addr)
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("joined as id %d, want 2", id)
	}
	st := settle(t, cl, 15*time.Second)
	if st.RingSize != 3 {
		t.Fatalf("ring size %d after join, want 3", st.RingSize)
	}
	if st.Rebalanced == 0 {
		t.Fatal("join moved no blocks onto the new node")
	}
	// The new node must hold its share: with one old node down, every
	// read still sees the latest data.
	nodes[1].kill()
	for n := uint64(0); n < blocks; n++ {
		if err := cl.ReadAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatalf("read block %d after join with node 1 down: %v", n, err)
		}
		if buf[0] != byte(n+1) {
			t.Fatalf("block %d: got %d want %d", n, buf[0], byte(n+1))
		}
	}
}

func TestClusterLeaveRebalances(t *testing.T) {
	_, _, cl := newTestRing(t, 3, Config{Replicas: 2, WriteBack: true, PlacementBlocks: 2})
	const blocks = 64
	buf := make([]byte, block.Size)
	for n := uint64(0); n < blocks; n++ {
		fillByte(buf, byte(n+1))
		if err := cl.WriteAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Leave(2); err != nil {
		t.Fatal(err)
	}
	st := settle(t, cl, 15*time.Second)
	if st.RingSize != 2 {
		t.Fatalf("ring size %d after leave, want 2", st.RingSize)
	}
	for n := uint64(0); n < blocks; n++ {
		if err := cl.ReadAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatalf("read block %d after leave: %v", n, err)
		}
		if buf[0] != byte(n+1) {
			t.Fatalf("block %d: got %d want %d", n, buf[0], byte(n+1))
		}
	}
	if err := cl.Leave(2); err == nil {
		t.Fatal("second leave of the same node should fail")
	}
}

func TestClusterFlushMakesEnsembleCurrent(t *testing.T) {
	be, nodes, cl := newTestRing(t, 2, Config{Replicas: 2, WriteBack: true, PlacementBlocks: 4})
	const blocks = 24
	buf := make([]byte, block.Size)
	for n := uint64(0); n < blocks/2; n++ {
		fillByte(buf, byte(n+1))
		if err := cl.WriteAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatal(err)
		}
	}
	nodes[1].kill()
	for n := uint64(blocks / 2); n < blocks; n++ {
		fillByte(buf, byte(n+1))
		if err := cl.WriteAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatal(err)
		}
	}
	nodes[1].restart()
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if st := cl.ClusterStats(); st.DirtyKeys != 0 || st.HintDepth != 0 {
		t.Fatalf("dirty=%d hints=%d after flush, want 0/0", st.DirtyKeys, st.HintDepth)
	}
	// The shared ensemble itself must now hold the newest data.
	for n := uint64(0); n < blocks; n++ {
		if err := be.ReadAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatalf("backend read block %d: %v", n, err)
		}
		if buf[0] != byte(n+1) {
			t.Fatalf("backend block %d: got %d want %d after flush", n, buf[0], byte(n+1))
		}
	}
}

func TestClusterInvalidateDropsStaleCaches(t *testing.T) {
	be, _, cl := newTestRing(t, 2, Config{Replicas: 2, PlacementBlocks: 4})
	buf := make([]byte, block.Size)
	fillByte(buf, 1)
	if err := cl.WriteAt(0, 0, buf, blockAt(9)); err != nil {
		t.Fatal(err)
	}
	// The ensemble changes behind the caches (a different writer path).
	fillByte(buf, 2)
	if err := be.WriteAt(0, 0, buf, blockAt(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Invalidate(0, 0, blockAt(9), block.Size); err != nil {
		t.Fatal(err)
	}
	if err := cl.ReadAt(0, 0, buf, blockAt(9)); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("read %d after invalidate, want the ensemble's 2", buf[0])
	}
}

// Invalidate with an unreachable node records a shed span that keeps
// excluding the stale range there until the heal replays it.
func TestClusterInvalidateUnreachableNodeHealsLater(t *testing.T) {
	be, nodes, cl := newTestRing(t, 2, Config{Replicas: 2, PlacementBlocks: 4})
	buf := make([]byte, block.Size)
	fillByte(buf, 1)
	if err := cl.WriteAt(0, 0, buf, blockAt(5)); err != nil {
		t.Fatal(err)
	}
	nodes[1].kill()
	fillByte(buf, 2)
	if err := be.WriteAt(0, 0, buf, blockAt(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Invalidate(0, 0, blockAt(5), block.Size); err == nil {
		t.Fatal("invalidate with a node down should report the failure")
	}
	// Node 1's stale copy is fenced: every read meanwhile must see 2.
	for i := 0; i < 4; i++ {
		if err := cl.ReadAt(0, 0, buf, blockAt(5)); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 2 {
			t.Fatalf("read %d while fenced, want 2", buf[0])
		}
	}
	nodes[1].restart()
	settle(t, cl, 10*time.Second)
	nodes[0].kill()
	if err := cl.ReadAt(0, 0, buf, blockAt(5)); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("healed node served %d, want 2", buf[0])
	}
}

func TestClusterStatsAggregates(t *testing.T) {
	_, _, cl := newTestRing(t, 3, Config{Replicas: 2})
	buf := make([]byte, block.Size)
	if err := cl.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	st := cl.Stats()
	if st.CapacityBlocks == 0 {
		t.Fatalf("aggregated capacity is zero: %+v", st)
	}
	if st.Writes == 0 {
		t.Fatalf("aggregated writes is zero: %+v", st)
	}
}

func TestClusterObservabilityEndpoints(t *testing.T) {
	_, _, cl := newTestRing(t, 2, Config{Replicas: 2, WriteBack: true})
	buf := make([]byte, block.Size)
	if err := cl.WriteAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.ReadAt(0, 0, buf, 0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cl.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"sievestore_cluster_reads 1",
		"sievestore_cluster_writes 1",
		"sievestore_cluster_ring_size 2",
		"sievestore_cluster_nodes_up 2",
		"sievestore_cluster_node_0_up 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Cluster ClusterStats `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatalf("statusz decode: %v", err)
	}
	resp.Body.Close()
	if status.Cluster.RingSize != 2 || len(status.Cluster.Nodes) != 2 {
		t.Fatalf("statusz topology wrong: %+v", status.Cluster)
	}
	if status.Cluster.Nodes[0].State != "up" {
		t.Fatalf("statusz node state: %+v", status.Cluster.Nodes[0])
	}
}

// Join and Leave while a light load runs: no op may ever return stale
// data, whatever topology it raced with.
func TestClusterJoinLeaveUnderLoad(t *testing.T) {
	_, nodes, cl := newTestRing(t, 3, Config{Replicas: 2, WriteBack: true, PlacementBlocks: 2})
	const blocks = 32
	var versions [blocks]atomic.Uint32
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, block.Size)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				n := uint64((i*2 + w) % blocks)
				v := versions[n].Load()
				if i%3 != 0 && v > 0 {
					if err := cl.ReadAt(0, 0, buf, blockAt(n)); err != nil {
						continue
					}
					if got := uint32(buf[0]) | uint32(buf[1])<<8; got < v {
						select {
						case errs <- errors.New("stale read under membership change"):
						default:
						}
						return
					}
					continue
				}
				nv := v + 1
				buf[0], buf[1] = byte(nv), byte(nv>>8)
				if err := cl.WriteAt(0, 0, buf, blockAt(n)); err == nil {
					versions[n].Store(nv)
				}
			}
		}()
	}
	joiner := startTNode(t, nodes[0].be, true)
	if _, err := cl.Join(joiner.addr); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cl.Leave(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	settle(t, cl, 15*time.Second)
	buf := make([]byte, block.Size)
	for n := uint64(0); n < blocks; n++ {
		v := versions[n].Load()
		if v == 0 {
			continue
		}
		if err := cl.ReadAt(0, 0, buf, blockAt(n)); err != nil {
			t.Fatalf("final read block %d: %v", n, err)
		}
		if got := uint32(buf[0]) | uint32(buf[1])<<8; got < v {
			t.Fatalf("block %d: version %d < floor %d after join/leave", n, got, v)
		}
	}
}

// TestHierarchicalCachingOverRing: a Client with R=1 satisfies
// core.Backend, so a local SieveStore can cache over a ring of remote
// SieveStore appliances — a two-level hierarchy (per-rack cache in front
// of the shared appliance tier).
func TestHierarchicalCachingOverRing(t *testing.T) {
	be, _, cl := newTestRing(t, 2, Config{Replicas: 1})
	local, err := core.Open(cl, core.Options{
		CacheBytes: 64 * block.Size,
		SieveC:     sieve.CConfig{IMCTSize: 1 << 10, T1: 1, T2: 1, Window: time.Hour, Subwindows: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	// Seed data through the hierarchy and read it back repeatedly.
	data := make([]byte, 8*block.Size)
	fillByte(data, 0x3C)
	if err := local.WriteAt(0, 0, data, blockAt(16)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	for i := 0; i < 4; i++ {
		if err := local.ReadAt(0, 0, buf, blockAt(16)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("hierarchy corrupted data")
	}
	// The local tier absorbed the repeats: the ring saw only the first
	// round of traffic.
	localStats := local.Stats()
	if localStats.ReadHits == 0 {
		t.Error("local tier never hit")
	}
	if remote := cl.Stats(); remote.Reads >= localStats.Reads {
		t.Errorf("ring saw %d reads, local issued %d — hierarchy not absorbing",
			remote.Reads, localStats.Reads)
	}
	// The origin backend holds the written data (both tiers write through).
	if err := be.ReadAt(0, 0, buf, blockAt(16)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Error("origin missing data")
	}
}
