package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be ascending and non-empty: the smallest value with at
// least p% of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the nearest-rank 50th percentile of xs (any order, non-empty).
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// searchLadder returns the highest rung in [0, top] whose probe passes,
// assuming pass/fail is monotone in the rung: rungs at or below known (-1 when
// no rung is known to pass) pass without probing. It gallops upward in
// strides until a probe fails or the ladder ends, then bisects the gap
// between the last pass and the first failure. It returns -1 when no probed
// rung passes.
func searchLadder(known, top, stride int, probe func(rung int) bool) int {
	pass, fail := known, top+1
	for k := pass + stride; k < fail; k += stride {
		if !probe(k) {
			fail = k
			break
		}
		pass = k
	}
	for fail-pass > 1 {
		mid := pass + (fail-pass)/2
		if probe(mid) {
			pass = mid
		} else {
			fail = mid
		}
	}
	return pass
}

// interval is a half-open time interval [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// unionLen returns the total length covered by the intervals; overlapping
// and nested intervals count once.
func unionLen(ivs []interval) int64 {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	curStart, curEnd := int64(0), int64(0)
	open := false
	for _, iv := range s {
		if iv.end <= iv.start {
			continue
		}
		if open && iv.start <= curEnd {
			if iv.end > curEnd {
				curEnd = iv.end
			}
			continue
		}
		if open {
			total += curEnd - curStart
		}
		curStart, curEnd, open = iv.start, iv.end, true
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover:
// the time the span spent in its own layer. The children may come from
// another clock than the parent (the client's span around the server's), so
// only their covered length is used; a negative difference, which only clock
// granularity can produce, reads as zero.
func selfTime(parentDur int64, children []interval) int64 {
	if d := parentDur - unionLen(children); d > 0 {
		return d
	}
	return 0
}
