package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5}, {ten, 90, 9}, {ten, 91, 10}, {ten, 99, 10}, {ten, 100, 10},
		{ten, 10, 1}, {ten, 0.1, 1}, {ten, 25, 3},
		{[]float64{7}, 50, 7}, {[]float64{7}, 99, 7},
		{[]float64{1, 2}, 50, 1}, {[]float64{1, 2}, 51, 2},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
}

// TestSearchLadderSyntheticCurve runs the ladder search against an M/M/1
// latency curve, p90 = ln(10)/(capacity - rate), whose limit crossing is
// known in closed form, from every kind of starting knowledge.
func TestSearchLadderSyntheticCurve(t *testing.T) {
	const base, step, limitMS = 1000.0, 1.05, 5.0
	rate := func(k int) float64 { return base * math.Pow(step, float64(k)) }
	for _, capacity := range []float64{1500, 4321, 7000, 9999} {
		meets := func(k int) bool {
			r := rate(k)
			return r < capacity && 1000*math.Ln10/(capacity-r) <= limitMS
		}
		want := -1
		for k := 0; k <= 60; k++ {
			if meets(k) {
				want = k
			}
		}
		for _, known := range []int{-1, 0, 5} {
			if known > want {
				continue // a known pass must really pass
			}
			probes := 0
			got := searchLadder(known, 60, 4, func(k int) bool {
				probes++
				if k <= known || k > 60 {
					t.Errorf("capacity %v: probed rung %d outside (%d, 60]", capacity, k, known)
				}
				return meets(k)
			})
			if got != want {
				t.Errorf("capacity %v, known %d: got rung %d (%.0f req/s), want %d (%.0f req/s)",
					capacity, known, got, rate(got), want, rate(want))
			}
			if probes > 20 {
				t.Errorf("capacity %v, known %d: %d probes, want a search, not a scan", capacity, known, probes)
			}
		}
	}
}

func TestSearchLadderEnds(t *testing.T) {
	if got := searchLadder(-1, 10, 4, func(int) bool { return true }); got != 10 {
		t.Errorf("all rungs pass: got %d, want the top rung 10", got)
	}
	if got := searchLadder(-1, 10, 4, func(int) bool { return false }); got != -1 {
		t.Errorf("no rung passes: got %d, want -1", got)
	}
	if got := searchLadder(3, 3, 4, func(k int) bool { t.Errorf("probed %d with nothing left to search", k); return true }); got != 3 {
		t.Errorf("known pass at the top: got %d, want 3", got)
	}
}

func TestUnionLenAndSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name string
		ivs  []interval
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", []interval{{0, 10}, {20, 25}}, 15},
		{"touching", []interval{{0, 10}, {10, 15}}, 15},
		{"overlapping", []interval{{0, 10}, {5, 15}}, 15},
		{"nested", []interval{{0, 100}, {10, 20}, {30, 40}}, 100},
		{"unsorted", []interval{{50, 60}, {0, 10}, {5, 12}}, 22},
		{"empty and inverted", []interval{{5, 5}, {9, 3}, {0, 1}}, 1},
	} {
		if got := unionLen(tc.ivs); got != tc.want {
			t.Errorf("%s: unionLen = %d, want %d", tc.name, got, tc.want)
		}
	}
	// A 100ns client span around four consecutive server spans covering
	// 10+20+30+5 = 65ns, with a 3ns gap between queue and engine.
	stages := []interval{{1000, 1010}, {1010, 1030}, {1033, 1063}, {1063, 1068}}
	if got := selfTime(100, stages); got != 100-65 {
		t.Errorf("selfTime = %d, want 35", got)
	}
	if got := selfTime(60, stages); got != 0 {
		t.Errorf("children longer than the parent: selfTime = %d, want 0", got)
	}
}
