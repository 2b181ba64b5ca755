package concentrator

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// partitionRoute is Switch.Route as a plain partition: each output port's
// requests, in arrival order, are handed to that port's concentrator. It
// routes through the switch's own concentrators, so it must run on a twin of
// the switch under test when they consume randomness.
func partitionRoute(s *Switch, reqs []Request) ([]int, int) {
	out := make([]int, len(reqs))
	lost := 0
	for p := Parent; p <= Right; p++ {
		var idx, active []int
		for i, r := range reqs {
			if r.Out == p {
				idx = append(idx, i)
				active = append(active, s.concentratorInput(r.In, r.Out, r.InWire))
			}
		}
		if len(idx) == 0 {
			continue
		}
		got, l := s.concentratorFor(p).Route(active)
		lost += l
		for j, i := range idx {
			out[i] = got[j]
		}
	}
	return out, lost
}

// TestSwitchRouteRankMatchesConcentrators pins Switch.Route's rank and
// pass-through answers to what the ports' Ideal and passThrough
// concentrators return, over every small width shape (the parent port is
// pass-through when capParent >= 2·capChild and ideal otherwise), and checks
// that a loss-injected port leaves the rank path. The request checks must
// keep panicking on either path.
func TestSwitchRouteRankMatchesConcentrators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for capParent := 1; capParent <= 9; capParent++ {
		for capChild := 1; capChild <= 9; capChild++ {
			sw := NewSwitch(capParent, capChild, KindIdeal, 1)
			wantParent := portRank
			if capParent >= 2*capChild {
				wantParent = portPass
			}
			if want := [3]portMode{wantParent, portRank, portRank}; sw.mode != want {
				t.Fatalf("%d/%d: port modes %v, want %v", capParent, capChild, sw.mode, want)
			}
			for trial := 0; trial < 40; trial++ {
				reqs := randomRequests(rng, capParent, capChild)
				want, wantLost := partitionRoute(sw, reqs)
				got, lost := sw.Route(reqs)
				if !reflect.DeepEqual(append([]int{}, got...), want) || lost != wantLost {
					t.Fatalf("%d/%d trial %d: Route = %v lost %d, concentrators give %v lost %d\nreqs %v",
						capParent, capChild, trial, got, lost, want, wantLost, reqs)
				}
			}
			if sw.MatchingRounds() != 0 || sw.FaultDrops() != 0 {
				t.Fatalf("%d/%d: ideal switch reports counters", capParent, capChild)
			}

			// A loss-injected twin pair: one routes through Route, the other
			// through its Lossy wrappers directly; their RNG streams match.
			lossy, twin := NewSwitch(capParent, capChild, KindIdeal, 1), NewSwitch(capParent, capChild, KindIdeal, 1)
			lossy.InjectLoss(0.3, 7)
			twin.InjectLoss(0.3, 7)
			if want := [3]portMode{portMatch, portMatch, portMatch}; lossy.mode != want {
				t.Fatalf("%d/%d: loss-injected port modes %v, want %v", capParent, capChild, lossy.mode, want)
			}
			for trial := 0; trial < 20; trial++ {
				reqs := randomRequests(rng, capParent, capChild)
				want, wantLost := partitionRoute(twin, reqs)
				got, lost := lossy.Route(reqs)
				if !reflect.DeepEqual(append([]int{}, got...), want) || lost != wantLost {
					t.Fatalf("%d/%d lossy trial %d: Route = %v lost %d, wrappers give %v lost %d",
						capParent, capChild, trial, got, lost, want, wantLost)
				}
			}
			if lossy.FaultDrops() != twin.FaultDrops() {
				t.Fatalf("%d/%d: fault drops %d, twin %d", capParent, capChild, lossy.FaultDrops(), twin.FaultDrops())
			}
		}
	}

	// The request checks run before any port is answered, on every path.
	for _, sw := range []*Switch{
		NewSwitch(4, 2, KindIdeal, 1),   // parent pass-through, children rank
		NewSwitch(2, 3, KindIdeal, 1),   // all rank
		NewSwitch(4, 6, KindPartial, 1), // all matching
	} {
		mustPanic(t, "turns back", func() { sw.Route([]Request{{In: Left, InWire: 0, Out: Left}}) })
		mustPanic(t, "out of range", func() { sw.Route([]Request{{In: Right, InWire: sw.capChild, Out: Parent}}) })
		mustPanic(t, "out of range", func() { sw.Route([]Request{{In: Parent, InWire: -1, Out: Left}}) })
		mustPanic(t, "two requests on input wire", func() {
			sw.Route([]Request{{In: Parent, InWire: 1, Out: Left}, {In: Parent, InWire: 1, Out: Right}})
		})
	}
}

// mustPanic fails t unless fn panics with a message containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	fn()
}
