package concentrator

import (
	"fmt"
	"math/rand"
)

// Lossy wraps a concentrator with a transient-fault model: each message the
// inner concentrator routes successfully is independently corrupted in
// transit with probability Rate and counts as lost. Section VII lists fault
// tolerance among the unsolved engineering concerns; the acknowledgment
// protocol of Section II already handles these losses — corrupted messages
// are simply negatively acknowledged and retried — and experiment E17
// measures the cost.
type Lossy struct {
	inner     Concentrator
	rate      float64
	rng       *rand.Rand
	corrupted int64 // cumulative fault corruptions, for the observability layer
}

// NewLossy wraps inner with the given corruption rate in [0, 1).
func NewLossy(inner Concentrator, rate float64, seed int64) *Lossy {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("concentrator: loss rate %v outside [0,1)", rate))
	}
	return &Lossy{inner: inner, rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Inputs returns the inner concentrator's input count.
func (l *Lossy) Inputs() int { return l.inner.Inputs() }

// Outputs returns the inner concentrator's output count.
func (l *Lossy) Outputs() int { return l.inner.Outputs() }

// Components returns the inner component count (faults add no hardware).
func (l *Lossy) Components() int { return l.inner.Components() }

// Route routes through the inner concentrator, then corrupts each surviving
// assignment independently. A corrupted message's wire remains occupied for
// the cycle (the hardware committed it before the fault), so corruption
// cannot create over-subscription downstream.
func (l *Lossy) Route(active []int) ([]int, int) {
	out, lost := l.inner.Route(active)
	for i, o := range out {
		if o >= 0 && l.rng.Float64() < l.rate {
			out[i] = -1
			lost++
			l.corrupted++
		}
	}
	return out, lost
}

// Corrupted returns the cumulative number of messages this wrapper has
// corrupted since construction.
func (l *Lossy) Corrupted() int64 { return l.corrupted }

// MatchingRounds forwards the inner concentrator's cumulative Hopcroft–Karp
// round count (faults add no matching work).
func (l *Lossy) MatchingRounds() int64 {
	if m, ok := l.inner.(roundCounter); ok {
		return m.MatchingRounds()
	}
	return 0
}

var _ Concentrator = (*Lossy)(nil)

// InjectLoss wraps all three concentrators of the switch with the transient-
// fault model; every port then routes through its Lossy wrapper.
func (s *Switch) InjectLoss(rate float64, seed int64) {
	s.toParent = NewLossy(s.toParent, rate, seed)
	s.toLeft = NewLossy(s.toLeft, rate, seed+1)
	s.toRight = NewLossy(s.toRight, rate, seed+2)
	s.classify()
}
