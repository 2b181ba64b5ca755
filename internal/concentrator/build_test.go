package concentrator

import (
	"math/rand"
	"reflect"
	"testing"
)

// referencePartialAdj is the original O(r·s) construction of NewPartial's
// graph, kept as the oracle the Fenwick-tree wiring must match bit for bit:
// for every edge it rebuilds the ascending pool of outputs with remaining
// budget not yet wired to the current input, and draws one uniformly.
func referencePartialAdj(r, s int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	deg := MaxInDegree
	if deg > s {
		deg = s
	}
	slotsPerOut := MaxOutDegree
	if r*deg > s*slotsPerOut {
		slotsPerOut = (r*deg + s - 1) / s
	}
	remaining := make([]int, s)
	for v := range remaining {
		remaining[v] = slotsPerOut
	}
	adj := make([][]int, r)
	order := rng.Perm(r)
	pool := make([]int, 0, s)
	for _, u := range order {
		used := make(map[int]bool, deg)
		edges := make([]int, 0, deg)
		for len(edges) < deg {
			pool = pool[:0]
			for v := 0; v < s; v++ {
				if remaining[v] > 0 && !used[v] {
					pool = append(pool, v)
				}
			}
			if len(pool) == 0 {
				break
			}
			v := pool[rng.Intn(len(pool))]
			used[v] = true
			remaining[v]--
			edges = append(edges, v)
		}
		adj[u] = edges
	}
	return adj
}

// checkMatchesReference fails t unless NewPartial and a Builder reproduce the
// reference adjacency of (r, s, seed) exactly.
func checkMatchesReference(t *testing.T, b *Builder, r, s int, seed int64) {
	t.Helper()
	want := referencePartialAdj(r, s, seed)
	if got := NewPartial(r, s, seed).adj; !reflect.DeepEqual(got, want) {
		t.Fatalf("NewPartial(%d, %d, %d) adjacency differs from the reference", r, s, seed)
	}
	if got := b.partial(r, s, seed).adj; !reflect.DeepEqual(got, want) {
		t.Fatalf("Builder.partial(%d, %d, %d) adjacency differs from the reference", r, s, seed)
	}
}

// TestPartialMatchesReference checks bit-identity with the original
// construction on every (r, s) with r <= 70 under several seeds, and on a few
// large graphs, including ones where the slot budget exceeds MaxOutDegree and
// ones where s < MaxInDegree.
func TestPartialMatchesReference(t *testing.T) {
	// One Builder across all cases: re-seeding its source in place and
	// reusing its scratch must not leak state between graphs.
	var b Builder
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		for r := 1; r <= 70; r++ {
			for s := 1; s <= r; s++ {
				checkMatchesReference(t, &b, r, s, seed)
			}
		}
	}
	for _, tc := range []struct {
		r, s int
		seed int64
	}{
		{2048, 1365, 3}, {1024, 682, 1}, {1536, 512, 9}, {600, 5, 2}, {1000, 1000, 4},
	} {
		checkMatchesReference(t, &b, tc.r, tc.s, tc.seed)
	}
}

func FuzzPartialMatchesReference(f *testing.F) {
	f.Add(uint16(1), uint16(1), int64(0))
	f.Add(uint16(300), uint16(200), int64(42))
	f.Add(uint16(90), uint16(4), int64(-3))
	f.Fuzz(func(t *testing.T, r, s uint16, seed int64) {
		rr := int(r%400) + 1
		ss := int(s)%rr + 1
		checkMatchesReference(t, new(Builder), rr, ss, seed)
	})
}

// randomRequests draws a well-formed request set for a switch: a random
// subset of the input wires of each port, each aimed at a random other port.
func randomRequests(rng *rand.Rand, capParent, capChild int) []Request {
	var reqs []Request
	for in := Parent; in <= Right; in++ {
		width := capChild
		if in == Parent {
			width = capParent
		}
		for w := 0; w < width; w++ {
			if rng.Intn(3) == 0 {
				continue
			}
			out := Port(rng.Intn(2))
			if out >= in {
				out++
			}
			reqs = append(reqs, Request{In: in, InWire: w, Out: out})
		}
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// TestBuilderSwitchMatchesNewSwitch builds the switches of a tree the way the
// dense engine does — one Builder, seed+v per node, so neighbouring nodes
// share graphs — and checks each against a fresh NewSwitch with the same
// arguments: identical Route results and MatchingRounds over random request
// sets, for both kinds.
func TestBuilderSwitchMatchesNewSwitch(t *testing.T) {
	const seed = 11
	for _, kind := range []Kind{KindIdeal, KindPartial} {
		var b Builder
		rng := rand.New(rand.NewSource(5))
		var capParent, capChild int
		for v := 1; v < 32; v++ {
			// Runs of four neighbours with equal widths, as within a tree
			// level, so most neighbours share graphs; some runs have
			// capParent == capChild, which makes every port's (r, s) equal.
			if v%4 == 1 {
				capChild = 4 + rng.Intn(60)
				capParent = capChild + rng.Intn(capChild+1)
				if rng.Intn(3) == 0 {
					capParent = capChild
				}
			}
			shared := b.Switch(capParent, capChild, kind, seed+int64(v))
			fresh := NewSwitch(capParent, capChild, kind, seed+int64(v))
			if shared.Components() != fresh.Components() {
				t.Fatalf("kind %d node %d: components %d vs %d", kind, v, shared.Components(), fresh.Components())
			}
			for trial := 0; trial < 8; trial++ {
				reqs := randomRequests(rng, capParent, capChild)
				gotOut, gotLost := shared.Route(reqs)
				gotOut = append([]int(nil), gotOut...)
				wantOut, wantLost := fresh.Route(reqs)
				if gotLost != wantLost || !reflect.DeepEqual(gotOut, wantOut) {
					t.Fatalf("kind %d node %d trial %d: Route differs: lost %d vs %d", kind, v, trial, gotLost, wantLost)
				}
				if shared.MatchingRounds() != fresh.MatchingRounds() {
					t.Fatalf("kind %d node %d trial %d: MatchingRounds %d vs %d",
						kind, v, trial, shared.MatchingRounds(), fresh.MatchingRounds())
				}
			}
		}
	}
}

// TestBuilderSharesAdjacency pins the memoization itself: the child-port
// cascades of node v (port 1) and node v-1 (port 2) have the same (r, s,
// seed), so one Builder hands both the same adjacency, while each keeps its
// own routing scratch.
func TestBuilderSharesAdjacency(t *testing.T) {
	var b Builder
	prev := b.Switch(24, 16, KindPartial, 100)
	next := b.Switch(24, 16, KindPartial, 101)
	right := prev.toRight.(*Cascade).stages[0]
	left := next.toLeft.(*Cascade).stages[0]
	if &right.adj[0][0] != &left.adj[0][0] {
		t.Fatal("equal (r, s, seed) graphs were wired twice")
	}
	if &right.m == &left.m || &right.seen[0] == &left.seen[0] {
		t.Fatal("partials sharing a graph share routing scratch")
	}
}
