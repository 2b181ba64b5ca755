package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"fattree"
)

// This file is the sim phase: six delivery and scheduling jobs run
// in-process through the public fattree facade, the way ftsim and library
// users run them. It is the only phase that reaches the streaming and k-ary
// data planes, the engine's intra-cycle worker fan-out, partial
// concentrators and the Theorem 1 scheduler. It runs in a child process so
// its peak memory is its own.

// simJob is one job: a topology, a switch kind, and an input, delivered
// with the online protocol or scheduled off-line.
type simJob struct {
	name  string
	kind  fattree.SwitchKind
	tree  func() fattree.Topology
	input func(seed int64) fattree.MessageSet
	sched bool // Theorem 1 off-line scheduling instead of online delivery
}

var simJobs = []simJob{
	{name: "dense",
		tree:  func() fattree.Topology { return fattree.NewUniversal(4096, 1024) },
		input: func(s int64) fattree.MessageSet { return fattree.Random(4096, 16384, s) }},
	{name: "implicit",
		tree:  func() fattree.Topology { return fattree.NewImplicitUniversal(1<<16, 1<<14) },
		input: func(s int64) fattree.MessageSet { return fattree.RandomPermutation(1<<16, s) }},
	{name: "kary",
		tree: func() fattree.Topology {
			return fattree.NewKary(fattree.KaryDesc{Down: []int{16, 16, 16}, Up: []int{8, 8, 16}, Parallel: []int{1, 1, 1}})
		},
		input: func(s int64) fattree.MessageSet { return fattree.Random(4096, 16384, s) }},
	{name: "partial", kind: fattree.SwitchPartial,
		tree:  func() fattree.Topology { return fattree.NewUniversal(1024, 256) },
		input: func(s int64) fattree.MessageSet { return fattree.Random(1024, 4096, s) }},
	// 256 messages into one processor: 256 nearly empty cycles, so the
	// per-cycle fixed cost dominates.
	{name: "hotspot",
		tree:  func() fattree.Topology { return fattree.NewUniversal(256, 64) },
		input: func(s int64) fattree.MessageSet { return fattree.HotSpot(256, 256, s) }},
	{name: "sched", sched: true,
		tree:  func() fattree.Topology { return fattree.NewUniversal(4096, 1024) },
		input: func(s int64) fattree.MessageSet { return fattree.Random(4096, 16384, s) }},
}

// jobResult is a job's output. Every run of a job must produce the same
// one; for sched, Cycles is the schedule length and Delivered the messages
// it schedules.
type jobResult struct{ Cycles, Delivered, Drops, Deferrals int }

// jobRun is one timed run of a job.
type jobRun struct {
	setup, run    time.Duration
	res           jobResult
	hops          int64  // wire-cycles carrying a message (observed runs)
	allocs, bytes uint64 // heap allocations during the run (counted runs)
}

// runMode selects how a pass runs its jobs.
type runMode struct {
	workers int  // 0 = GOMAXPROCS (the default), 1 = serial
	observe bool // attach an Observer (serial passes only)
	count   bool // count the run's allocations
	verify  bool // check the schedule is one (sched only; untimed)
	memory  bool // measure the pass's peak resident set
}

// run builds the job's topology and engine (or scheduler) and runs it once.
func (j simJob) run(ms fattree.MessageSet, seed int64, m runMode) (jobRun, error) {
	var out jobRun
	runtime.GC() // every run starts from the same heap state
	t0 := time.Now()
	tree := j.tree()
	var obs *fattree.Observer
	if m.observe {
		if _, ok := tree.(*fattree.ImplicitFatTree); ok {
			obs = fattree.NewObserverCompact(tree)
		} else {
			obs = fattree.NewObserver(tree)
		}
	}
	var before runtime.MemStats
	if j.sched {
		sc := fattree.NewScheduler(tree)
		out.setup = time.Since(t0)
		if m.count {
			runtime.ReadMemStats(&before)
		}
		t1 := time.Now()
		var s *fattree.Schedule
		switch {
		case m.workers != 1:
			s = sc.OffLineParallel(ms, m.workers)
		case m.observe:
			s = sc.OffLineObserved(ms, obs)
		default:
			s = sc.OffLine(ms)
		}
		out.run = time.Since(t1)
		out.res.Cycles = len(s.Cycles)
		for _, c := range s.Cycles {
			out.res.Delivered += len(c)
		}
		if m.verify {
			for i, c := range s.Cycles {
				if !fattree.IsOneCycle(tree, c) {
					return out, fmt.Errorf("sched: cycle %d of the schedule is not a one-cycle set", i)
				}
			}
		}
	} else {
		eng := fattree.NewEngineWithOptions(tree, j.kind, seed, fattree.Options{Workers: m.workers, Observer: obs})
		out.setup = time.Since(t0)
		if m.count {
			runtime.ReadMemStats(&before)
		}
		t1 := time.Now()
		st := fattree.RunOnline(eng, ms)
		out.run = time.Since(t1)
		out.res = jobResult{st.Cycles, st.Delivered, st.Drops, st.Deferrals}
	}
	if m.count {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		out.allocs = after.Mallocs - before.Mallocs
		out.bytes = after.TotalAlloc - before.TotalAlloc
	}
	if obs != nil {
		for _, w := range obs.C.WireUse {
			out.hops += w
		}
	}
	if out.res.Delivered != len(ms) {
		return out, fmt.Errorf("%s: delivered %d of %d messages", j.name, out.res.Delivered, len(ms))
	}
	return out, nil
}

// Pass counts of the sim phase.
const (
	minPasses    = 3
	maxPasses    = 100
	memoryPasses = 3 // traced runs only
)

// runSim runs the sim phase for about budget and adds its metrics to rep.
//
// The timed passes run serially (Workers=1). On a shared two-CPU machine
// the default worker count's times move by half between runs of the same
// code, because each delivery cycle hands work across CPUs that another
// tenant of the host may hold; serial times move by about a tenth. The
// default worker count still runs in every run, as a correctness check,
// and the traced run times it for par.<job>.speedup.
func runSim(seed int64, budget time.Duration, trace bool, rep *report) {
	inputs := make([]fattree.MessageSet, len(simJobs))
	for i, j := range simJobs {
		inputs[i] = j.input(seed)
	}
	var peaks []float64 // peak resident MB of each memory pass
	pass := func(m runMode) []jobRun {
		// A memory pass starts from memory returned to the kernel and a
		// reset high-water mark, as a fresh process running the jobs would.
		var resetErr error
		if m.memory {
			resetErr = resetPeakRSS()
		}
		runs := make([]jobRun, len(simJobs))
		for i, j := range simJobs {
			rep.Attempted++
			r, err := j.run(inputs[i], seed, m)
			if err != nil {
				rep.Failed++
				rep.problem("%v", err)
			}
			runs[i] = r
		}
		if m.memory {
			rss, err := peakRSSMB(0)
			if err == nil {
				err = resetErr
			}
			if err != nil {
				rep.problem("measuring peak RSS: %v", err)
			}
			peaks = append(peaks, rss)
		}
		return runs
	}

	serial := [][]jobRun{pass(runMode{workers: 1, verify: true})}
	var parallel [][]jobRun
	start := time.Now()
	for len(serial) < minPasses || (time.Since(start) < budget && len(serial) < maxPasses) {
		serial = append(serial, pass(runMode{workers: 1}))
		if trace || len(parallel) == 0 {
			parallel = append(parallel, pass(runMode{}))
		}
	}
	var observed, counted []jobRun
	var memory [][]jobRun
	if trace {
		observed = pass(runMode{workers: 1, observe: true})
		counted = pass(runMode{workers: 1, count: true})
		for k := 0; k < memoryPasses; k++ {
			memory = append(memory, pass(runMode{workers: 1, memory: true}))
		}
	}
	// Every run of a job, at any worker count, observed or not, must
	// reproduce the first serial run exactly.
	ref := serial[0]
	for _, p := range append(append(append(append([][]jobRun{}, serial...), parallel...), memory...), observed, counted) {
		for i, r := range p {
			if r.res != ref[i].res {
				rep.Failed++
				rep.problem("%s: result %+v differs from the serial reference %+v", simJobs[i].name, r.res, ref[i].res)
			}
		}
	}

	runMS := func(passes [][]jobRun, i int) []float64 {
		var xs []float64
		for _, p := range passes {
			xs = append(xs, float64(p[i].run)/1e6)
		}
		return xs
	}
	var setupS []float64
	for _, p := range serial {
		var s time.Duration
		for _, r := range p {
			s += r.setup
		}
		setupS = append(setupS, s.Seconds())
	}
	rep.SetupParts = append(rep.SetupParts, median(setupS))
	// The gate is on the pass total: each job's time moves with the host's
	// speed by about as much as a regression bound allows, and six such
	// gates would fail together far more often than their sum does.
	var totalMS []float64
	for _, p := range serial {
		var t time.Duration
		for _, r := range p {
			t += r.run
		}
		totalMS = append(totalMS, float64(t)/1e6)
	}
	rep.endToEnd("jobs_ms", "ms", median(totalMS), len(totalMS))
	for i, j := range simJobs {
		rep.layer("job_ms."+j.name, "ms", median(runMS(serial, i)), len(serial))
	}
	if !trace {
		return
	}
	rep.layer("sim.peak_rss_mb", "MB", median(peaks), len(peaks))

	var plainSum, observedSum float64
	for i, j := range simJobs {
		runMed := median(runMS(serial, i))
		parMed := median(runMS(parallel, i))
		var setup []float64
		for _, p := range serial {
			setup = append(setup, float64(p[i].setup)/1e6)
		}
		pre := "sim." + j.name
		rep.layer("setup."+j.name+"_ms", "ms", median(setup), len(setup))
		rep.layer("par."+j.name+".default_ms", "ms", parMed, len(parallel))
		rep.layer("par."+j.name+".speedup", "x", runMed/parMed, len(parallel))
		rep.layer(pre+".us_per_cycle", "us", runMed*1e3/float64(ref[i].res.Cycles), len(serial))
		if j.sched {
			rep.layer(pre+".ns_per_msg", "ns", runMed*1e6/float64(len(inputs[i])), len(serial))
		} else {
			rep.layer(pre+".ns_per_hop", "ns", runMed*1e6/float64(observed[i].hops), len(serial))
		}
		rep.layer(pre+".allocs", "count", float64(counted[i].allocs), 1)
		rep.layer(pre+".bytes", "B", float64(counted[i].bytes), 1)
		plainSum += runMed
		observedSum += float64(observed[i].run) / 1e6
	}
	rep.layer("trace.overhead_pct", "%", 100*(observedSum/plainSum-1), 1)
}

// resetPeakRSS returns freed heap to the kernel and resets this process's
// VmHWM to its current resident set (Linux 4.0 and later), so the next
// peakRSSMB read is the peak since this call.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("5")); err != nil {
		f.Close()
		return fmt.Errorf("resetting VmHWM: %w", err)
	}
	return f.Close()
}

// runSimChild runs the sim phase in a child process (this binary with -sim)
// and merges the child's report into rep.
func runSimChild(opt options, budget time.Duration, rep *report) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-sim", "-seed", strconv.FormatInt(opt.seed, 10),
		"-sim-budget", budget.String(), "-trace", trace)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("sim phase: %w", err)
	}
	var child report
	if err := json.Unmarshal(out, &child); err != nil {
		return fmt.Errorf("sim phase report: %w", err)
	}
	rep.merge(&child)
	return nil
}
