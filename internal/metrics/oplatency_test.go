package metrics

import (
	"testing"
	"time"
)

func TestOpLatencyZeroValues(t *testing.T) {
	var s OpLatencySnapshot
	if s.Mean() != 0 {
		t.Error("mean of empty snapshot should be 0")
	}
	if s.Throughput(time.Second) != 0 {
		t.Error("throughput of empty snapshot should be 0")
	}
	if s.Throughput(0) != 0 {
		t.Error("throughput over zero elapsed should be 0, not +Inf")
	}
}

func TestOpLatencySnapshotAdd(t *testing.T) {
	loaded := OpLatencySnapshot{Ops: 2, Errors: 1, TotalNanos: 100, MaxNanos: 70}
	other := OpLatencySnapshot{Ops: 3, Errors: 0, TotalNanos: 50, MaxNanos: 90}
	for _, tc := range []struct {
		name string
		a, b OpLatencySnapshot
		want OpLatencySnapshot
	}{
		{"both loaded", loaded, other,
			OpLatencySnapshot{Ops: 5, Errors: 1, TotalNanos: 150, MaxNanos: 90}},
		{"empty left", OpLatencySnapshot{}, loaded, loaded},
		{"empty right", loaded, OpLatencySnapshot{}, loaded},
		{"both empty", OpLatencySnapshot{}, OpLatencySnapshot{}, OpLatencySnapshot{}},
		{"max from left", OpLatencySnapshot{MaxNanos: 5}, OpLatencySnapshot{MaxNanos: 3},
			OpLatencySnapshot{MaxNanos: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.Add(tc.b); got != tc.want {
				t.Errorf("Add = %+v, want %+v", got, tc.want)
			}
			// Add must be commutative.
			if got := tc.b.Add(tc.a); got != tc.want {
				t.Errorf("Add not commutative: %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestOpLatencySnapshotEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name     string
		s        OpLatencySnapshot
		elapsed  time.Duration
		wantMean time.Duration
		wantTput float64
		wantRate float64
	}{
		{"empty", OpLatencySnapshot{}, time.Second, 0, 0, 0},
		{"zero elapsed", OpLatencySnapshot{Ops: 4, TotalNanos: 400}, 0, 100, 0, 0},
		{"negative elapsed", OpLatencySnapshot{Ops: 4, TotalNanos: 400}, -time.Second, 100, 0, 0},
		{"negative ops", OpLatencySnapshot{Ops: -3, TotalNanos: 100, Errors: -1}, time.Second, 0, 0, 0},
		{"normal", OpLatencySnapshot{Ops: 2, Errors: 1, TotalNanos: 200}, time.Second, 100, 2, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.Mean(); got != tc.wantMean {
				t.Errorf("Mean = %v, want %v", got, tc.wantMean)
			}
			if got := tc.s.Throughput(tc.elapsed); got != tc.wantTput {
				t.Errorf("Throughput = %v, want %v", got, tc.wantTput)
			}
			if got := tc.s.ErrorRate(); got != tc.wantRate {
				t.Errorf("ErrorRate = %v, want %v", got, tc.wantRate)
			}
		})
	}
}
