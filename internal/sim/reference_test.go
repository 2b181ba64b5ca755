package sim

import (
	"reflect"
	"testing"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/obsv"
)

// This file keeps the delivery cycle as it ran before the live-flight list
// and the rank path of concentrator.Switch.Route, as the oracle those two
// must match bit for bit: every sweep step scans the whole flight table, and
// every switch port hands its partitioned requests to its Concentrator. The
// reference borrows an Engine for everything the two left unchanged —
// injection, request building, wire application and its guards, collection,
// and the observer's per-flight events.

// refSwitch is one node's switch as a plain partition over three
// concentrators built from the public constructors, exactly as the dense
// engine builds its switches: pass-through when a port has at least as many
// wires as inputs, otherwise Ideal or a seeded Cascade.
type refSwitch struct {
	capParent, capChild int
	conc                [3]concentrator.Concentrator // by output port
	out                 []int
}

func newRefSwitch(capParent, capChild int, kind concentrator.Kind, seed int64) *refSwitch {
	build := func(r, s int, stage int64) concentrator.Concentrator {
		switch {
		case s >= r:
			return &refPass{r: r, s: s}
		case kind == concentrator.KindIdeal:
			return concentrator.NewIdeal(r, s)
		}
		return concentrator.NewCascade(r, s, seed+stage)
	}
	return &refSwitch{
		capParent: capParent,
		capChild:  capChild,
		conc: [3]concentrator.Concentrator{
			build(2*capChild, capParent, 0),
			build(capParent+capChild, capChild, 1),
			build(capParent+capChild, capChild, 2),
		},
	}
}

// injectLoss mirrors concentrator.Switch.InjectLoss.
func (s *refSwitch) injectLoss(rate float64, seed int64) {
	for p := range s.conc {
		s.conc[p] = concentrator.NewLossy(s.conc[p], rate, seed+int64(p))
	}
}

// route partitions reqs by output port and routes each port's requests, in
// arrival order, through its concentrator.
func (s *refSwitch) route(reqs []concentrator.Request) []int {
	s.out = s.out[:0]
	for range reqs {
		s.out = append(s.out, -1)
	}
	for p := range s.conc {
		var idx, active []int
		for i, r := range reqs {
			if int(r.Out) != p {
				continue
			}
			// The concatenated input numbering: (left, right) wires for the
			// parent port, (parent, other child) wires for a child port.
			w := r.InWire
			if p == int(concentrator.Parent) && r.In == concentrator.Right {
				w += s.capChild
			} else if p != int(concentrator.Parent) && r.In != concentrator.Parent {
				w += s.capParent
			}
			idx = append(idx, i)
			active = append(active, w)
		}
		if len(idx) == 0 {
			continue
		}
		got, _ := s.conc[p].Route(active)
		for j, i := range idx {
			s.out[i] = got[j]
		}
	}
	return s.out
}

// counters sums the cumulative matching rounds and fault corruptions of the
// switch's concentrators.
func (s *refSwitch) counters() (rounds, faults int64) {
	for _, c := range s.conc {
		if m, ok := c.(interface{ MatchingRounds() int64 }); ok {
			rounds += m.MatchingRounds()
		}
		if f, ok := c.(interface{ Corrupted() int64 }); ok {
			faults += f.Corrupted()
		}
	}
	return rounds, faults
}

// refPass is the pass-through port: every active input keeps its index.
type refPass struct{ r, s int }

func (p *refPass) Inputs() int     { return p.r }
func (p *refPass) Outputs() int    { return p.s }
func (p *refPass) Components() int { return p.r }
func (p *refPass) Route(active []int) ([]int, int) {
	return append([]int(nil), active...), 0
}

// refEngine runs reference cycles on a serial Engine whose own switches stay
// idle: dense nodes route through sw, k-ary nodes through the engine's inline
// ideal rules (sw is nil).
type refEngine struct {
	e  *Engine
	sw []*refSwitch
}

func newRefEngine(t core.Topology, kind concentrator.Kind, seed int64, loss float64, lossSeed int64, o *obsv.Observer) *refEngine {
	e := NewWithOptions(t, kind, seed, Options{Workers: 1, Observer: o})
	r := &refEngine{e: e}
	if e.kary != nil {
		return r
	}
	r.sw = make([]*refSwitch, t.Processors())
	for v := 1; v < t.Processors(); v++ {
		r.sw[v] = newRefSwitch(e.caps[v], e.caps[2*v], kind, seed+int64(v))
		if loss > 0 {
			r.sw[v].injectLoss(loss, lossSeed+int64(3*v))
		}
	}
	return r
}

// levelRange and parent give the sweep geometry of either plane.
func (r *refEngine) levelRange(level int) (first, count int) {
	if r.e.kary != nil {
		return r.e.kary.t.LevelRange(level)
	}
	return 1 << uint(level), 1 << uint(level)
}

func (r *refEngine) parent(v int) int {
	if r.e.kary != nil {
		return r.e.kary.t.Parent(v)
	}
	return v >> 1
}

// cycle is one reference delivery cycle: full flight-table scans per sweep
// step, then each touched switch in node order.
func (r *refEngine) cycle(pending core.MessageSet) ([]bool, CycleResult) {
	e := r.e
	scr := &e.scr
	flights, res := e.inject(pending)
	if e.obs != nil {
		e.observeInject(pending, flights)
	}
	scr.nodes = scr.nodes[:0]
	leafLevel := e.tree.Levels()
	for level := leafLevel - 1; level >= 0; level-- {
		first, count := r.levelRange(level)
		for i := range flights {
			f := &flights[i]
			if f.state != flightUp {
				continue
			}
			if p := r.parent(f.node); f.lca != p {
				e.karyOwn(first, count, p, i)
			}
		}
		r.routeLevel(first, true, &res)
	}
	for level := 0; level < leafLevel; level++ {
		first, count := r.levelRange(level)
		for i := range flights {
			f := &flights[i]
			switch f.state {
			case flightUp:
				e.karyOwn(first, count, f.lca, i)
			case flightDown:
				e.karyOwn(first, count, f.node, i)
			}
		}
		r.routeLevel(first, false, &res)
	}
	delivered := e.collect(pending, flights, &res)
	if e.obs != nil {
		e.obs.CycleEnd(res.Delivered, res.Dropped, res.Deferred)
	}
	return delivered, res
}

// routeLevel routes, observes and merges one sweep step serially.
func (r *refEngine) routeLevel(first int, upSweep bool, res *CycleResult) {
	e := r.e
	scr := &e.scr
	for _, v := range scr.nodes {
		who := scr.buckets[v-first]
		var local CycleResult
		if r.sw == nil {
			e.routeKaryGathered(v, scr.flights, who, upSweep, &local)
		} else {
			reqs := e.switchRequests(v, scr.flights, who, upSweep)
			e.applyWires(v, scr.flights, who, reqs, r.sw[v].route(reqs), upSweep, &local)
		}
		scr.dropped[v-first] = local.Dropped
	}
	if e.obs != nil {
		for _, v := range scr.nodes {
			who := scr.buckets[v-first]
			if r.sw == nil {
				e.obs.SwitchDelta(v, len(who), scr.dropped[v-first], 0, 0)
			} else {
				rounds, faults := r.sw[v].counters()
				e.obs.Switch(v, len(who), scr.dropped[v-first], rounds, faults)
			}
			e.observeFlights(v, who, upSweep)
		}
	}
	for _, v := range scr.nodes {
		res.Dropped += scr.dropped[v-first]
		scr.buckets[v-first] = scr.buckets[v-first][:0]
	}
	scr.nodes = scr.nodes[:0]
}

// flightTable snapshots an engine's last cycle: every flight and the wire
// history it recorded, delivered or not.
func flightTable(e *Engine) ([]flight, [][]int) {
	fs := append([]flight(nil), e.scr.flights...)
	hist := make([][]int, len(fs))
	for i, f := range fs {
		hist[i] = append([]int(nil), e.scr.histArena[f.histOff:f.histOff+f.histLen]...)
	}
	return fs, hist
}

// checkCyclesMatchReference runs cycles back-to-back delivery cycles of the
// retry protocol on a reference engine and on one engine per worker count
// {1, 2}, all on tree t, and fails unless every cycle's delivered flags,
// CycleResult, histories and flight table agree, and the observers end with
// equal counters and event traces. When every message is delivered the next
// cycle offers ms again, so one engine also regrows its arena.
func checkCyclesMatchReference(t *testing.T, plane string, tree core.Topology, kind concentrator.Kind, seed int64, loss float64, ms core.MessageSet, cycles int) {
	t.Helper()
	newObs := func() *obsv.Observer {
		o := obsv.New(tree)
		o.EnableTrace(1 << 15)
		return o
	}
	ref := newRefEngine(tree, kind, seed, loss, seed+1, newObs())
	var engines []*Engine
	for _, workers := range []int{1, 2} {
		e := NewWithOptions(tree, kind, seed, Options{Workers: workers, Observer: newObs()})
		if loss > 0 {
			e.InjectLoss(loss, seed+1)
		}
		engines = append(engines, e)
	}
	pending := ms
	for c := 0; c < cycles; c++ {
		wantDel, wantRes := ref.cycle(pending)
		wantDel = append([]bool(nil), wantDel...)
		wantHist := ref.e.histories(ref.e.scr.flights)
		wantFlights, wantPaths := flightTable(ref.e)
		for _, e := range engines {
			gotDel, gotRes := e.RunCycle(pending)
			if gotRes != wantRes || !reflect.DeepEqual(gotDel, wantDel) {
				t.Fatalf("%s workers=%d cycle %d: RunCycle = %+v %v, reference %+v %v",
					plane, e.Workers(), c, gotRes, gotDel, wantRes, wantDel)
			}
			if got := e.histories(e.scr.flights); !reflect.DeepEqual(got, wantHist) {
				t.Fatalf("%s workers=%d cycle %d: histories %v, reference %v", plane, e.Workers(), c, got, wantHist)
			}
			gotFlights, gotPaths := flightTable(e)
			if !reflect.DeepEqual(gotFlights, wantFlights) || !reflect.DeepEqual(gotPaths, wantPaths) {
				t.Fatalf("%s workers=%d cycle %d: flight table diverges from the reference", plane, e.Workers(), c)
			}
		}
		var next core.MessageSet
		for i, ok := range wantDel {
			if !ok {
				next = append(next, pending[i])
			}
		}
		if len(next) == 0 {
			next = ms
		}
		pending = next
	}
	for _, e := range engines {
		if !obsv.CountersEqual(ref.e.obs, e.obs) {
			t.Fatalf("%s workers=%d: observer counters diverge from the reference", plane, e.Workers())
		}
		if got, want := e.obs.Trace().Events(), ref.e.obs.Trace().Events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s workers=%d: observer events diverge from the reference", plane, e.Workers())
		}
	}
}

// FuzzCycleMatchesReference holds the live-list sweep and the switches' rank
// path to the reference cycle above, on dense engines with ideal, partial
// and loss-injected switches (data decodes as in
// FuzzEngineParallelEquivalence; odd ext turns every third message into
// external I/O) and on k-ary engines, over 2..7 back-to-back cycles.
func FuzzCycleMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 7, 3, 4, 1, 3, 1, 3, 2, 3, 5, 3, 6}, uint8(0), uint8(3))
	f.Add([]byte{1, 1, 0, 15, 15, 0, 1, 14, 2, 13, 3, 12, 4, 11}, uint8(1), uint8(5))
	f.Add([]byte{2, 0x32, 5, 6, 5, 7, 5, 8, 6, 5, 7, 5, 9, 5}, uint8(1), uint8(4))
	f.Add([]byte{9, 0x53, 5, 5, 5, 6, 5, 7, 5, 8, 6, 5, 7, 5, 1, 2, 3, 4}, uint8(0), uint8(5))
	f.Add([]byte{4, 0xf2, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0}, uint8(3), uint8(2))
	f.Add([]byte{6, 0x04, 1, 9, 1, 10, 1, 11, 1, 12, 2, 9, 2, 10, 3, 9, 4, 9, 5, 9}, uint8(1), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, ext, cycles uint8) {
		ft, ms, kind, seed, loss := decodeEngineFuzz(data)
		rounds := 2 + int(cycles%6)

		dense := ms
		if ext&1 == 1 {
			dense = append(core.MessageSet(nil), ms...)
			for i := 0; i < len(dense); i += 3 {
				if i%2 == 0 {
					dense[i].Src = core.External
				} else {
					dense[i].Dst = core.External
				}
			}
		}
		checkCyclesMatchReference(t, "dense", ft, kind, seed, loss, dense, rounds)

		// The k-ary plane has inline ideal switches only: its part of the
		// change is the live-list sweep.
		kt := core.NewKary([]core.KaryDesc{
			{Down: []int{3, 4}, Up: []int{2, 1}, Parallel: []int{1, 1}},
			{Down: []int{4, 2, 3}, Up: []int{3, 2, 1}, Parallel: []int{1, 1, 1}},
			{Down: []int{5, 5}, Up: []int{2, 1}, Parallel: []int{3, 2}, Root: 7},
		}[int(seed)%3])
		kn := kt.Processors()
		var kms core.MessageSet
		for _, m := range ms {
			if s, d := m.Src%kn, m.Dst%kn; s != d {
				kms = append(kms, core.Message{Src: s, Dst: d})
			}
		}
		checkCyclesMatchReference(t, "k-ary", kt, concentrator.KindIdeal, seed, 0, kms, rounds)
	})
}
