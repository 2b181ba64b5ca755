package sim

import (
	"fattree/internal/core"
	"fattree/internal/obsv"
)

// This file is the engine side of the observability layer (internal/obsv).
// The engine holds the observer as a concrete *obsv.Observer pointer — never
// an interface — so the disabled path is one pointer compare with no
// interface-conversion allocation, and every hook sits at a deterministic
// serial merge point of the cycle data plane:
//
//   - after inject, reading the flight table in message-index order;
//   - in routeLevel, after the level fan-out has joined but before the
//     buckets are reset, reading buckets in first-touch node order and each
//     bucket in message-index order;
//   - after collect, closing the cycle.
//
// Worker goroutines never touch the observer, so counter totals and the event
// stream are bit-identical for any worker count, and attaching an observer
// cannot perturb routing (it only reads engine state).

// SetObserver attaches an observer to the engine (nil detaches). The observer
// must be bound to a tree of the same size: a dense observer (obsv.New) for
// the dense engine, dense or compact (obsv.NewCompact) for the streaming
// engine — only streaming keeps every counter answerable without per-node
// arrays. Attaching snapshots the cumulative hardware counters of every switch
// so per-sweep deltas start at the attach point. The observer must not be
// shared with another engine running concurrently.
func (e *Engine) SetObserver(o *obsv.Observer) {
	if o != nil {
		if o.Nodes() != e.tree.Nodes()+1 {
			panic("sim: observer is bound to a tree of a different size")
		}
		switch {
		case e.stream != nil:
			e.stream.primeSpecials()
		case e.kary != nil:
			// The k-ary plane routes with inline ideal concentrators — there
			// are no switch objects to prime, and its counters stay per node.
			if o.Compact() {
				panic("sim: the k-ary engine requires a dense observer (obsv.New); compact observers attach to implicit-topology engines")
			}
		default:
			if o.Compact() {
				panic("sim: the dense engine requires a dense observer (obsv.New); compact observers attach to implicit-topology engines")
			}
			for v := 1; v < e.tree.Processors(); v++ {
				o.PrimeSwitch(v, e.switches[v].MatchingRounds(), e.switches[v].FaultDrops())
			}
		}
	}
	e.obs = o
}

// Observer returns the attached observer, or nil when observability is
// disabled.
func (e *Engine) Observer() *obsv.Observer { return e.obs }

// observeInject records the cycle start and the injection outcome of every
// flight in message-index order. Called only when an observer is attached.
//
//ftlint:hotpath
func (e *Engine) observeInject(pending core.MessageSet, flights []flight) {
	o := e.obs
	t := e.tree
	o.CycleStart(len(pending))
	for i := range flights {
		f := &flights[i]
		if f.state == flightLost { // deferred: never entered the network
			node := 1
			if f.msg.Src != core.External {
				node = t.Leaf(f.msg.Src)
			}
			o.Defer(i, f.msg, node)
			continue
		}
		o.Inject(i, f.msg, f.node, f.wire)
	}
}

// observeLevel records one sweep step's outcomes after the level fan-out has
// joined: per-switch contention (with the cumulative hardware counters for
// matching rounds and fault drops), and per-flight advance/block/deliver
// events with the channel each winner occupies. Bucket order is first-touch
// node order and within a bucket message-index order — the same deterministic
// order the drop merge uses. Called only when an observer is attached.
//
//ftlint:hotpath
func (e *Engine) observeLevel(first int, upSweep bool) {
	o := e.obs
	scr := &e.scr
	for _, v := range scr.nodes {
		bucket := scr.buckets[v-first]
		if e.kary != nil {
			// Inline ideal routing has no hardware counters to difference.
			o.SwitchDelta(v, len(bucket), scr.dropped[v-first], 0, 0)
		} else {
			sw := e.switches[v]
			o.Switch(v, len(bucket), scr.dropped[v-first], sw.MatchingRounds(), sw.FaultDrops())
		}
		e.observeFlights(v, bucket, upSweep)
	}
}

// observeFlights records the advance, block and deliver events of the
// flights switch v contested this sweep step, in bucket order.
//
//ftlint:hotpath
func (e *Engine) observeFlights(v int, bucket []int, upSweep bool) {
	o := e.obs
	scr := &e.scr
	for _, i := range bucket {
		f := &scr.flights[i]
		switch f.state {
		case flightLost:
			o.Block(i, f.msg, v)
		case flightUp:
			// Ascended: now holds a wire in the up channel above v.
			o.Advance(i, f.msg, v, v, int(core.Up), f.wire)
		case flightDown:
			// Turned or descended: holds the down channel above f.node.
			o.Advance(i, f.msg, v, f.node, int(core.Down), f.wire)
		case flightDone:
			if upSweep {
				// External output: delivered through the root up channel.
				o.Advance(i, f.msg, v, v, int(core.Up), f.wire)
			} else {
				// Reached the destination leaf's down channel.
				o.Advance(i, f.msg, v, f.node, int(core.Down), f.wire)
			}
			o.Deliver(i, f.msg, v)
		}
	}
}
