package concentrator

import (
	"fmt"
	"math/rand"
)

// Pippenger's construction parameters: bipartite partial concentrator graphs
// with s = 2r/3 outputs in which every input has degree at most 6 and every
// output degree at most 9, concentrating any k <= α·s inputs with α = 3/4.
const (
	// MaxInDegree is the paper's bound on the degree of concentrator inputs.
	MaxInDegree = 6
	// MaxOutDegree is the paper's bound on the degree of concentrator outputs.
	MaxOutDegree = 9
	// DefaultAlpha is the concentration constant α of Pippenger's (r, 2r/3, 3/4)
	// partial concentrators.
	DefaultAlpha = 0.75
)

// Concentrator routes messages from input wires onto fewer output wires. The
// job of the concentrator switch is to create electrical paths from those
// input wires that carry messages to output wires; if there are more input
// messages than reachable output wires, the excess messages are lost
// (congestion).
type Concentrator interface {
	// Inputs returns r, the number of input wires.
	Inputs() int
	// Outputs returns s <= r, the number of output wires.
	Outputs() int
	// Route connects the given active input wires to distinct outputs via
	// vertex-disjoint paths where possible. It returns out[i] = the output
	// assigned to active[i], or -1 if that message is lost.
	Route(active []int) (out []int, lost int)
	// Components returns the number of switching components, which must be
	// O(r) for the fat-tree node cost bound of Section IV to hold.
	Components() int
}

// Ideal is the idealized concentrator assumed through most of Section III:
// if the number of input messages does not exceed the number of output wires,
// no messages are lost. With k > s actives, exactly k-s are lost.
type Ideal struct {
	r, s int
	out  []int // reusable result buffer; Route's return is scratch-owned
}

// NewIdeal returns an ideal (r, s) concentrator. It panics if s > r or either
// is non-positive, which would not be a concentrator at all.
func NewIdeal(r, s int) *Ideal {
	if r < 1 || s < 1 || s > r {
		panic(fmt.Sprintf("concentrator: invalid ideal concentrator (r=%d, s=%d)", r, s))
	}
	return &Ideal{r: r, s: s}
}

// Inputs returns r.
func (c *Ideal) Inputs() int { return c.r }

// Outputs returns s.
func (c *Ideal) Outputs() int { return c.s }

// Components models the ideal concentrator as a full crossbar-free
// concentrator of linear size.
func (c *Ideal) Components() int { return c.r + c.s }

// Route assigns the first s active inputs to outputs 0..s-1 and drops the
// rest. The returned slice is reused by the next Route call.
//
//ftlint:hotpath
func (c *Ideal) Route(active []int) ([]int, int) {
	c.out = growInts(c.out, len(active))
	out := c.out
	lost := 0
	for i := range active {
		if active[i] < 0 || active[i] >= c.r {
			panic(fmt.Sprintf("concentrator: active input %d out of range [0,%d)", active[i], c.r))
		}
		if i < c.s {
			out[i] = i
		} else {
			out[i] = -1
			lost++
		}
	}
	return out, lost
}

// Partial is an (r, s, α) partial concentrator graph: a bipartite graph with
// r inputs and s <= r outputs such that any k <= α·s inputs can be
// simultaneously connected to some k outputs by vertex-disjoint paths. The
// graph is bipartite (constant depth, no intermediate vertices), inputs have
// degree at most MaxInDegree and outputs at most MaxOutDegree, mirroring
// Pippenger's probabilistic construction.
type Partial struct {
	r, s int
	adj  [][]int // adj[input] = candidate outputs

	// Reusable routing scratch: the matching working set and the
	// epoch-stamped duplicate-input guard (seen[u] == gen means input u
	// already appeared in the current Route call).
	m    Matcher
	seen []int64
	gen  int64
}

// NewPartial builds a seeded pseudo-random (r, s, ·) partial concentrator.
// Each input is wired to MaxInDegree outputs (fewer when s < MaxInDegree)
// drawn from the outputs with remaining slot budget, keeping every output's
// degree at most MaxOutDegree whenever the aggregate budget allows
// (r·MaxInDegree <= s·MaxOutDegree, which holds at the canonical ratio
// s = 2r/3). The achieved concentration constant is measured, not assumed:
// see MeasureAlpha. Construction costs O(r·deg·log s) for deg =
// min(MaxInDegree, s); a Builder additionally shares graphs across calls.
func NewPartial(r, s int, seed int64) *Partial {
	return new(Builder).partial(r, s, seed)
}

// Inputs returns r.
func (c *Partial) Inputs() int { return c.r }

// Outputs returns s.
func (c *Partial) Outputs() int { return c.s }

// Components counts one component per vertex plus one per edge — O(r) by the
// degree bounds.
func (c *Partial) Components() int {
	edges := 0
	for _, a := range c.adj {
		edges += len(a)
	}
	return c.r + c.s + edges
}

// MaxInputDegree returns the largest input degree in the graph.
func (c *Partial) MaxInputDegree() int {
	max := 0
	for _, a := range c.adj {
		if len(a) > max {
			max = len(a)
		}
	}
	return max
}

// MaxOutputDegree returns the largest output degree in the graph.
func (c *Partial) MaxOutputDegree() int {
	deg := make([]int, c.s)
	for _, a := range c.adj {
		for _, v := range a {
			deg[v]++
		}
	}
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	return max
}

// Route connects the active inputs to distinct outputs by maximum bipartite
// matching; unmatched actives are lost. Duplicate or out-of-range inputs
// panic. The returned slice is reused by the next Route (or MeasureAlpha)
// call on this concentrator.
//
//ftlint:hotpath
func (c *Partial) Route(active []int) ([]int, int) {
	c.gen++
	for _, u := range active {
		if u < 0 || u >= c.r {
			panic(fmt.Sprintf("concentrator: active input %d out of range [0,%d)", u, c.r))
		}
		if c.seen[u] == c.gen {
			panic(fmt.Sprintf("concentrator: duplicate active input %d", u))
		}
		c.seen[u] = c.gen
	}
	matched, size := c.m.MatchSubset(active, c.s, c.adj)
	return matched, len(active) - size
}

// MatchingRounds returns the cumulative number of Hopcroft–Karp BFS phases
// this concentrator has run since construction.
func (c *Partial) MatchingRounds() int64 { return c.m.Rounds() }

// MeasureAlpha estimates the concentration constant of the graph: the largest
// fraction α such that every sampled subset of ceil(α·s) inputs was fully
// connected to distinct outputs. It samples `trials` random subsets at each
// candidate size, descending from s, and returns the first size at which no
// loss was observed. The returned value is a lower-bound estimate of the true
// α (sampling can only overestimate loss-freeness, so trials should be
// generous in tests).
func (c *Partial) MeasureAlpha(trials int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	for k := c.s; k >= 1; k-- {
		ok := true
		for t := 0; t < trials && ok; t++ {
			subset := rng.Perm(c.r)[:k]
			_, size := c.m.MatchSubset(subset, c.s, c.adj)
			if size < k {
				ok = false
			}
		}
		if ok {
			return float64(k) / float64(c.s)
		}
	}
	return 0
}
