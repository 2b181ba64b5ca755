package concentrator

import "fmt"

// This file implements the internal structure of a fat-tree node (Fig. 3 of
// the paper). A node has three input ports and three output ports connected
// to the channels of the surrounding tree edges. A wire from an input port is
// fanned out toward the two opposite output ports; a selector ANDs the M bit
// with the leading address bit (or its complement) to determine which output
// port the message wants, and a concentrator switch at each output port
// establishes disjoint electrical paths for as many of those messages as
// possible.

// Port names the three bidirectional port positions of a node.
type Port int

const (
	// Parent is the port facing the node's parent (the Up output channel and
	// the Down input channel).
	Parent Port = iota
	// Left is the port facing the left child.
	Left
	// Right is the port facing the right child.
	Right
)

// String returns "parent", "left" or "right".
func (p Port) String() string {
	switch p {
	case Parent:
		return "parent"
	case Left:
		return "left"
	case Right:
		return "right"
	}
	return fmt.Sprintf("port(%d)", int(p))
}

// Kind selects the concentrator implementation inside a switch.
type Kind int

const (
	// KindIdeal uses ideal concentrators: no message is lost unless an output
	// channel is congested (more messages than wires). This is the assumption
	// of Section III.
	KindIdeal Kind = iota
	// KindPartial uses Pippenger-style partial concentrators; a message can
	// occasionally be lost even without congestion, when the active set
	// exceeds the measured α fraction. Section IV's remedy — treating the
	// effective capacity as α times the wire count — is applied by callers.
	KindPartial
)

// Request is one message entering a node during a delivery cycle: it occupies
// wire InWire of input port In, and its leading address bit directs it to
// output port Out. In == Out is invalid: a message never turns back on the
// port it arrived on (paths in the tree are simple).
type Request struct {
	In     Port
	InWire int
	Out    Port
}

// Switch is the switching circuitry of one fat-tree node: one concentrator
// per output port, each fed by the two input ports that can reach it.
//
// A Switch owns reusable routing scratch (as do its concentrators), so one
// Switch must not route from multiple goroutines concurrently, and the slice
// Route returns is valid only until the next Route call.
type Switch struct {
	capParent int // width of the parent-side channels (up and down)
	capChild  int // width of each child-side channel
	toParent  Concentrator
	toLeft    Concentrator
	toRight   Concentrator

	// Per output port, set by classify whenever a port's concentrator
	// changes: how Route assigns its wires, and the concentrator's hardware
	// counters (nil when it keeps none), so the observer's per-sweep reads
	// need no type assertions.
	mode   [3]portMode
	rounds [3]roundCounter
	faults [3]faultCounter

	scr switchScratch
}

// portMode says how Switch.Route assigns the wires of one output port.
type portMode uint8

const (
	// portMatch partitions the port's requests and routes them through its
	// Concentrator: partial graphs, cascades, and fault-injected ports.
	portMatch portMode = iota
	// portRank gives the k-th requester wire k while k < s and loses the
	// rest — exactly what an unwrapped Ideal returns.
	portRank
	// portPass gives each requester its concatenated input index — exactly
	// what an unwrapped passThrough returns.
	portPass
)

// roundCounter and faultCounter are the optional hardware counters a
// concentrator may keep (Partial and Cascade count matching rounds; Lossy
// counts both).
type roundCounter interface{ MatchingRounds() int64 }
type faultCounter interface{ Corrupted() int64 }

// switchScratch is the reusable per-route arena of one switch: request
// partitions per output port, epoch-stamped input-wire occupancy guards, and
// the result and active-wire buffers. Sized by the port widths, it is
// allocated once at construction and never grows.
type switchScratch struct {
	byOut    [3][]pendingReq
	seen     [3][]int64 // per input port: stamp of the route that used a wire
	gen      int64
	outWires []int
	active   []int
}

// pendingReq maps one request to its index in the concatenated input
// numbering of its output port's concentrator.
type pendingReq struct {
	reqIdx int
	wire   int
}

// NewSwitch builds the switch for a node whose parent-side channels have
// capParent wires and whose child-side channels have capChild wires each.
// kind selects ideal or partial concentrators; seed feeds the partial
// constructions. To build many switches, use one Builder, which shares the
// graphs they have in common.
func NewSwitch(capParent, capChild int, kind Kind, seed int64) *Switch {
	return new(Builder).Switch(capParent, capChild, kind, seed)
}

// Switch returns the switch NewSwitch(capParent, capChild, kind, seed)
// builds, with its partial concentrators drawn from this Builder.
func (b *Builder) Switch(capParent, capChild int, kind Kind, seed int64) *Switch {
	if capParent < 1 || capChild < 1 {
		panic(fmt.Sprintf("concentrator: invalid switch widths parent=%d child=%d", capParent, capChild))
	}
	build := func(r, s int, stage int64) Concentrator {
		if s >= r {
			return &passThrough{r: r, s: s}
		}
		if kind == KindIdeal {
			return NewIdeal(r, s)
		}
		return b.cascade(r, s, seed+stage)
	}
	s := &Switch{
		capParent: capParent,
		capChild:  capChild,
		// To the parent: candidates come from both children.
		toParent: build(2*capChild, capParent, 0),
		// To a child: candidates come from the parent and the other child.
		toLeft:  build(capParent+capChild, capChild, 1),
		toRight: build(capParent+capChild, capChild, 2),
	}
	maxReqs := capParent + 2*capChild // every input wire of every port active
	for out := Parent; out <= Right; out++ {
		s.scr.byOut[out] = make([]pendingReq, 0, maxReqs)
		s.scr.seen[out] = make([]int64, s.portWidth(out))
	}
	s.scr.outWires = make([]int, 0, maxReqs)
	s.scr.active = make([]int, 0, maxReqs)
	s.classify()
	return s
}

// classify derives each output port's routing mode and counter sources from
// its concentrator's concrete type. Only an unwrapped Ideal or passThrough
// routes by rank; anything else, including a Lossy wrapper around one, keeps
// the matching path.
func (s *Switch) classify() {
	for out := Parent; out <= Right; out++ {
		c := s.concentratorFor(out)
		switch c.(type) {
		case *Ideal:
			s.mode[out] = portRank
		case *passThrough:
			s.mode[out] = portPass
		default:
			s.mode[out] = portMatch
		}
		s.rounds[out], _ = c.(roundCounter)
		s.faults[out], _ = c.(faultCounter)
	}
}

// passThrough is the degenerate "concentrator" used when an output port has
// at least as many wires as its candidate inputs: every message passes.
type passThrough struct {
	r, s int
	buf  []int
}

func (p *passThrough) Inputs() int     { return p.r }
func (p *passThrough) Outputs() int    { return p.s }
func (p *passThrough) Components() int { return p.r }

// Route passes every active wire through unchanged. The returned slice is
// reused by the next Route call.
//
//ftlint:hotpath
func (p *passThrough) Route(active []int) ([]int, int) {
	p.buf = growInts(p.buf, len(active))
	copy(p.buf, active)
	return p.buf, 0
}

// Components returns the total number of switching components in the node,
// which is O(m) for m incident wires (Section IV).
func (s *Switch) Components() int {
	return s.toParent.Components() + s.toLeft.Components() + s.toRight.Components()
}

// IncidentWires returns m, the number of wires incident on the node (both
// directions of all three ports).
func (s *Switch) IncidentWires() int {
	return 2 * (s.capParent + 2*s.capChild)
}

// Route performs one delivery cycle's switching: each request is assigned an
// output wire on its requested port, or -1 if the concentrator loses it. It
// returns the per-request assignments and the total number lost. Requests
// must be well-formed (valid wire ranges, In != Out, no two requests on the
// same input wire); Route panics otherwise, as the caller (the simulator)
// owns those invariants.
//
// Ports with an unwrapped ideal or pass-through concentrator are answered in
// the checking pass itself, by arrival rank or by concatenated input index;
// only the remaining ports are partitioned and handed to their concentrator.
//
// The returned slice is owned by the switch's scratch and valid only until
// the next Route call on this switch.
//
//ftlint:hotpath
func (s *Switch) Route(reqs []Request) (outWires []int, lost int) {
	// The duplicate-wire guard is an epoch stamp per input wire, cleared by
	// incrementing the generation instead of reallocating.
	scr := &s.scr
	scr.gen++
	for out := Parent; out <= Right; out++ {
		scr.byOut[out] = scr.byOut[out][:0]
	}
	outWires = growInts(scr.outWires, len(reqs))
	scr.outWires = outWires
	var rank [3]int
	for i, r := range reqs {
		if r.In == r.Out {
			panic(fmt.Sprintf("concentrator: request %d turns back on port %v", i, r.In))
		}
		if r.InWire < 0 || r.InWire >= s.portWidth(r.In) {
			panic(fmt.Sprintf("concentrator: request %d wire %d out of range on port %v", i, r.InWire, r.In))
		}
		if scr.seen[r.In][r.InWire] == scr.gen {
			panic(fmt.Sprintf("concentrator: two requests on input wire %d of port %v", r.InWire, r.In))
		}
		scr.seen[r.In][r.InWire] = scr.gen
		// wire is the request's index in the concatenated input numbering
		// of its output port's concentrator.
		wire := s.concentratorInput(r.In, r.Out, r.InWire)
		switch s.mode[r.Out] {
		case portRank:
			if k := rank[r.Out]; k < s.portWidth(r.Out) {
				outWires[i] = k
			} else {
				outWires[i] = -1
				lost++
			}
			rank[r.Out]++
		case portPass:
			outWires[i] = wire
		default: // answered below, once the port's requests are all known
			scr.byOut[r.Out] = append(scr.byOut[r.Out], pendingReq{reqIdx: i, wire: wire})
		}
	}

	for out := Parent; out <= Right; out++ {
		ps := scr.byOut[out]
		if len(ps) == 0 {
			continue
		}
		active := growInts(scr.active, len(ps))
		scr.active = active
		for j, p := range ps {
			active[j] = p.wire
		}
		assigned, l := s.concentratorFor(out).Route(active)
		lost += l
		for j, p := range ps {
			outWires[p.reqIdx] = assigned[j]
		}
	}
	return outWires, lost
}

// MatchingRounds returns the cumulative Hopcroft–Karp BFS phases run by the
// node's three concentrators since construction — 0 for ideal or pass-through
// ports, which route without matching. The observability layer snapshots this
// monotone counter and differences it per sweep.
func (s *Switch) MatchingRounds() int64 {
	var total int64
	for _, c := range s.rounds {
		if c != nil {
			total += c.MatchingRounds()
		}
	}
	return total
}

// FaultDrops returns the cumulative number of messages corrupted by injected
// transient faults (the Lossy wrapper) across the node's three concentrators;
// 0 when no loss is injected. Monotone, for observability snapshots.
func (s *Switch) FaultDrops() int64 {
	var total int64
	for _, c := range s.faults {
		if c != nil {
			total += c.Corrupted()
		}
	}
	return total
}

// portWidth returns the wire count of a port (per direction).
func (s *Switch) portWidth(p Port) int {
	if p == Parent {
		return s.capParent
	}
	return s.capChild
}

// concentratorFor returns the concentrator serving output port out.
func (s *Switch) concentratorFor(out Port) Concentrator {
	switch out {
	case Parent:
		return s.toParent
	case Left:
		return s.toLeft
	case Right:
		return s.toRight
	}
	panic("concentrator: bad output port")
}

// concentratorInput maps (input port, wire) to the concatenated input index
// of the concentrator at output port out. For the parent concentrator the
// order is (left wires, right wires); for a child concentrator it is
// (parent wires, other-child wires).
func (s *Switch) concentratorInput(in, out Port, wire int) int {
	switch out {
	case Parent:
		if in == Left {
			return wire
		}
		return s.capChild + wire
	case Left, Right:
		if in == Parent {
			return wire
		}
		return s.capParent + wire
	}
	panic("concentrator: bad output port")
}
