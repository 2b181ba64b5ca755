package concentrator

import "fmt"

// Cascade pastes several partial concentrator graphs together, outputs to
// inputs, to obtain an arbitrary concentration ratio in constant depth ("by
// pasting several of these graphs together, outputs to inputs, any constant
// ratio of concentration can be obtained in constant depth"). Each stage
// shrinks the wire count by the canonical factor 2/3 until the target output
// count is reached; the final stage is built directly at the needed ratio.
type Cascade struct {
	stages []*Partial
	r, s   int

	// Reusable routing scratch: the per-message current-wire array and the
	// live-wire compaction buffers. Route's return is scratch-owned.
	cur, live, idxOf []int
}

// NewCascade builds a cascade concentrating r inputs onto s <= r outputs.
// Stage i is a partial concentrator from w_i wires to max(s, 2w_i/3) wires.
func NewCascade(r, s int, seed int64) *Cascade {
	return new(Builder).cascade(r, s, seed)
}

// cascade returns the cascade NewCascade(r, s, seed) builds, with its stages
// drawn from this Builder.
func (b *Builder) cascade(r, s int, seed int64) *Cascade {
	if r < 1 || s < 1 || s > r {
		panic(fmt.Sprintf("concentrator: invalid cascade (r=%d, s=%d)", r, s))
	}
	c := &Cascade{r: r, s: s}
	w := r
	stage := int64(0)
	for w > s {
		next := 2 * w / 3
		if next < s {
			next = s
		}
		c.stages = append(c.stages, b.partial(w, next, seed+stage))
		w = next
		stage++
	}
	if len(c.stages) == 0 {
		// r == s: a single identity-capable stage keeps Route well-defined.
		c.stages = append(c.stages, b.partial(r, s, seed))
	}
	return c
}

// Inputs returns r.
func (c *Cascade) Inputs() int { return c.r }

// Outputs returns s.
func (c *Cascade) Outputs() int { return c.s }

// Depth returns the number of stages — constant for any fixed concentration
// ratio.
func (c *Cascade) Depth() int { return len(c.stages) }

// Components sums the component counts of the stages; still O(r) because the
// stage widths form a geometric series.
func (c *Cascade) Components() int {
	total := 0
	for _, st := range c.stages {
		total += st.Components()
	}
	return total
}

// MatchingRounds returns the cumulative Hopcroft–Karp BFS phases summed over
// the cascade's stages since construction.
func (c *Cascade) MatchingRounds() int64 {
	total := int64(0)
	for _, st := range c.stages {
		total += st.MatchingRounds()
	}
	return total
}

// Route pushes the active inputs through the stages. A message lost at any
// stage is lost overall. It returns the final output wire per active input
// (-1 if lost) and the total number lost. The returned slice is reused by
// the next Route call.
//
//ftlint:hotpath
func (c *Cascade) Route(active []int) ([]int, int) {
	// cur[i] = wire currently carrying active[i], or -1 once lost.
	cur := growInts(c.cur, len(active))
	c.cur = cur
	copy(cur, active)
	for _, st := range c.stages {
		// Collect live wires (they are distinct by induction).
		live := growInts(c.live, len(cur))[:0]
		idxOf := growInts(c.idxOf, len(cur))[:0]
		for i, w := range cur {
			if w >= 0 {
				live = append(live, w)
				idxOf = append(idxOf, i)
			}
		}
		c.live, c.idxOf = live[:cap(live)], idxOf[:cap(idxOf)]
		out, _ := st.Route(live)
		for j, i := range idxOf {
			cur[i] = out[j]
		}
	}
	lost := 0
	for _, w := range cur {
		if w < 0 {
			lost++
		}
	}
	return cur, lost
}

var _ Concentrator = (*Ideal)(nil)
var _ Concentrator = (*Partial)(nil)
var _ Concentrator = (*Cascade)(nil)
