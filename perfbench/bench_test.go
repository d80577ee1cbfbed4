package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
)

// testParams runs a workload small: ensemble at 1/16384 and one short
// round.
func testParams(t *testing.T, workload string, seed int64) params {
	return params{workload: workload, seed: seed, seconds: 0.5, rounds: 1, scale: 16384, dir: t.TempDir()}
}

func TestEnsembleSameSeedSameCounts(t *testing.T) {
	var runs [2]resultOut
	for i := range runs {
		res, err := runPlain(testParams(t, "ensemble", 7))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("run %d: %d of %d requests failed", i, res.Failed, res.Attempted)
		}
		runs[i] = res
	}
	for _, m := range []string{"hit_ratio", "alloc_writes_per_kacc", "backend_ios_per_kacc"} {
		a, b := runs[0].Metrics[m].Value, runs[1].Metrics[m].Value
		if a != b || a == 0 {
			t.Errorf("%s: %v then %v; want the same nonzero value", m, a, b)
		}
	}
}

func TestDifferentSeedDifferentTrace(t *testing.T) {
	_, a, err := ensembleTrace(1, 16384)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := ensembleTrace(2, 16384)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("ensemble traces of seeds 1 and 2 are identical")
	}
	_, a2, err := ensembleTrace(1, 16384)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, a2) {
		t.Error("two ensemble traces of seed 1 differ")
	}

	ten := &tenantMap{}
	tenants := []int{ten.add(0, 0)}
	draw := func(seed int64) []uint64 {
		c := newZipfClients(seed, []opStore{nil}, tenants, ten, hotsetSpan)[0]
		out := make([]uint64, 64)
		for i := range out {
			out[i] = c.zipf.Uint64()
		}
		return out
	}
	if reflect.DeepEqual(draw(1), draw(2)) {
		t.Error("Zipf client streams of seeds 1 and 2 are identical")
	}
}

func TestByteFlipIsCaught(t *testing.T) {
	for _, w := range []string{"ensemble", "hotset", "gateway"} {
		t.Run(w, func(t *testing.T) {
			p := testParams(t, w, 3)
			p.wrapBackend = func(b core.Backend) core.Backend { return &flipBackend{inner: b, every: 7} }
			res, err := runPlain(p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed == 0 || res.Correct {
				t.Errorf("flipped backend bytes went unnoticed: failed %d of %d, correct %v", res.Failed, res.Attempted, res.Correct)
			}
		})
	}
}

func TestDiskKeepsAnyContent(t *testing.T) {
	ten := &tenantMap{}
	ten.add(2, 1)
	r := newRouter(ten, []uint64{64 * block.Size})
	sh := newShadow([]uint64{64})
	p := make([]byte, 4*block.Size)
	sh.write(p, 0, 8)
	p[3*block.Size+5] ^= 1 // the last block is no longer a stamp
	rand.New(rand.NewSource(1)).Read(p[block.Size : 2*block.Size])
	if err := r.WriteAt(2, 1, p, 8*block.Size); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(p))
	if err := r.ReadAt(2, 1, got, 8*block.Size); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Error("disk returned different bytes than were written")
	}
	if !sh.check(got[:block.Size], 0, 8) || sh.check(got[3*block.Size:], 0, 11) {
		t.Error("shadow check disagrees with the stamps")
	}
	zero := make([]byte, block.Size)
	if err := r.ReadAt(2, 1, zero, 0); err != nil || !sh.check(zero, 0, 0) {
		t.Errorf("unwritten block: err %v, reads as zero %v", err, sh.check(zero, 0, 0))
	}
	if err := r.ReadAt(2, 1, zero, 64*block.Size); err == nil {
		t.Error("read past the end of the volume succeeded")
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	e := endToEnd(nil)
	var want, got []string
	for _, k := range e.order {
		want = append(want, k+" "+e.units[k])
	}
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name+" "+m.Unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end lists %v; the benchmark prints %v", got, want)
	}
	want, got = nil, nil
	for _, l := range perLayer {
		want = append(want, l.name+" "+l.unit)
	}
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer lists %v; the benchmark prints %v", got, want)
	}
}

// flipBackend corrupts one byte of every `every`-th backend read. The
// self-tests use it to show the read checker catches bad bytes.
type flipBackend struct {
	inner core.Backend
	every int64
	reads atomic.Int64
}

func (b *flipBackend) ReadAt(server, volume int, p []byte, off uint64) error {
	err := b.inner.ReadAt(server, volume, p, off)
	if b.reads.Add(1)%b.every == 0 && len(p) > 0 {
		p[len(p)/2] ^= 0x40
	}
	return err
}

func (b *flipBackend) WriteAt(server, volume int, p []byte, off uint64) error {
	return b.inner.WriteAt(server, volume, p, off)
}
