package concentrator

import (
	"fmt"
	"math/rand"
)

// Builder constructs the concentrators of one engine. Its partial
// concentrator graphs are memoized by (r, s, seed): the per-node seed scheme
// (seed+v, plus the port offset 0/1/2 and the cascade stage) makes many
// switches of one tree ask for the same graph — toLeft of node v and toRight
// of node v-1 do whenever the two nodes have equal channel widths — and a
// graph is a pure function of (r, s, seed), so the adjacency is wired once
// and shared. Adjacency is read-only after
// construction; every Partial still owns its routing scratch (Matcher,
// duplicate guard, rounds counter), so sharing changes no routing result.
//
// A Builder also reuses one RNG source, re-seeded in place per graph (Seed
// fully resets the generator, so the draws equal a fresh source's), and its
// wiring scratch. The zero value is ready to use. A Builder is not safe for
// concurrent use; it is a construction-time object and need not outlive the
// switches it built.
type Builder struct {
	graphs map[graphKey][][]int

	rng       *rand.Rand
	remaining []int // per output: slot budget left
	avail     fenwick
}

// graphKey identifies one partial concentrator graph.
type graphKey struct {
	r, s int
	seed int64
}

// partial returns the (r, s) partial concentrator with the given seed — the
// same graph NewPartial builds — sharing its adjacency with any earlier
// Partial of the same (r, s, seed) from this Builder.
func (b *Builder) partial(r, s int, seed int64) *Partial {
	if r < 1 || s < 1 || s > r {
		panic(fmt.Sprintf("concentrator: invalid partial concentrator (r=%d, s=%d)", r, s))
	}
	key := graphKey{r: r, s: s, seed: seed}
	adj, ok := b.graphs[key]
	if !ok {
		adj = b.wire(r, s, seed)
		if b.graphs == nil {
			b.graphs = make(map[graphKey][][]int)
		}
		b.graphs[key] = adj
	}
	return &Partial{r: r, s: s, adj: adj, seen: make([]int64, r)}
}

// wire draws the adjacency of the (r, s) partial concentrator with the given
// seed. Inputs are visited in a random order; each takes deg distinct
// outputs, each drawn uniformly from the ascending list of outputs that still
// have slot budget and are not yet wired to it. That list is never
// materialized: a Fenwick tree marks its members, so drawing index k costs
// O(log s) instead of an O(s) rebuild, and returns the same output. The
// adjacency lists are carved from one slab.
func (b *Builder) wire(r, s int, seed int64) [][]int {
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(seed))
	} else {
		b.rng.Seed(seed)
	}
	rng := b.rng
	deg := MaxInDegree
	if deg > s {
		deg = s
	}
	// Slot budget: each output takes up to MaxOutDegree edges, but at least
	// enough slots exist to serve all inputs.
	slotsPerOut := MaxOutDegree
	if r*deg > s*slotsPerOut {
		slotsPerOut = (r*deg + s - 1) / s
	}
	b.remaining = growInts(b.remaining, s)
	remaining := b.remaining
	for v := range remaining {
		remaining[v] = slotsPerOut
	}
	b.avail.fill(s)
	total := s // outputs in the candidate list

	adj := make([][]int, r)
	slab := make([]int, r*deg)
	next := 0
	// Process inputs in random order so no input is systematically starved.
	for _, u := range rng.Perm(r) {
		edges := slab[next:next]
		for len(edges) < deg && total > 0 {
			v := b.avail.find(rng.Intn(total))
			b.avail.add(v, -1)
			total--
			remaining[v]--
			edges = append(edges, v)
		}
		// u is wired: its outputs rejoin the candidates while budget remains.
		for _, v := range edges {
			if remaining[v] > 0 {
				b.avail.add(v, 1)
				total++
			}
		}
		adj[u] = edges[:len(edges):len(edges)]
		next += len(edges)
	}
	return adj
}

// fenwick is a binary indexed tree over 0/1 membership flags of the outputs
// 0..n-1, answering "the k-th member in ascending order" in O(log n).
type fenwick struct {
	tree []int // 1-indexed partial sums
	top  int   // largest power of two <= n
}

// fill resets the tree to n members, all present.
func (f *fenwick) fill(n int) {
	f.tree = growInts(f.tree, n+1)
	for i := 1; i <= n; i++ {
		f.tree[i] = i & -i // a node covers lowbit(i) flags, all set
	}
	f.top = 1
	for f.top*2 <= n {
		f.top *= 2
	}
}

// add changes member v's flag by delta (+1 joins, -1 leaves).
func (f *fenwick) add(v, delta int) {
	for i := v + 1; i < len(f.tree); i += i & -i {
		f.tree[i] += delta
	}
}

// find returns the k-th member (0-based) in ascending order; k must be below
// the member count.
func (f *fenwick) find(k int) int {
	pos := 0
	for step := f.top; step > 0; step >>= 1 {
		if next := pos + step; next < len(f.tree) && f.tree[next] <= k {
			pos = next
			k -= f.tree[next]
		}
	}
	return pos
}
