// Command perfbench is the repository benchmark. One run measures what a
// user of the repository waits for, end to end: /v1/route requests sent to
// ftserve over loopback by an open-loop client (latency at two fixed rates,
// the highest rate that meets a latency limit, CPU per request, start-up
// time and memory), and six delivery and scheduling jobs run in-process
// through the fattree facade. Every output is checked: each response against
// an in-process replay of its message set, each /metrics scrape against the
// strict parser and the conservation law, each job against its serial
// reference. With -trace 1 the run reports per-layer figures instead: the
// stage breakdown from ftserve's request spans, replayed library-call costs,
// and the jobs' per-cycle, per-hop, allocation and worker-scaling figures.
//
// Build and run it from the repository root with run.sh:
//
//	sh perfbench/run.sh --workload serve-small --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics by name with their units. The exit status is 0
// when every output was correct, 1 when one was not, and 2 on bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// simShare is the share of --seconds the sim phase's timed passes take; the
// serve phase's fixed-rate rounds take the rest (fixedShare).
const simShare = 0.6

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ftserve  string // path of the ftserve binary
}

func main() {
	// Child processes are started from this thread, which lives as long as
	// the process, so their parent-death signal fires only when it exits.
	runtime.LockOSThread()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var opt options
	var trace int
	var simChild bool
	var simBudget time.Duration
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "workload: serve-small|serve-large")
	fs.Int64Var(&opt.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&opt.seconds, "seconds", 40, "measurement time of one run, seconds")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	fs.StringVar(&opt.ftserve, "ftserve", "", "path of the ftserve binary")
	fs.BoolVar(&simChild, "sim", false, "run only the sim phase and print its report as JSON (used by the benchmark itself)")
	fs.DurationVar(&simBudget, "sim-budget", 0, "timed-pass budget of the sim phase (with -sim)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if simChild {
		rep := newReport(stderr)
		runSim(opt.seed, simBudget, opt.trace, rep)
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	spec, ok := serveSpecs[opt.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want serve-small|serve-large)\n", opt.workload)
		return 2
	}
	if opt.seconds < 1 || opt.ftserve == "" {
		fmt.Fprintln(stderr, "perfbench: need -seconds >= 1 and -ftserve (run through perfbench/run.sh)")
		return 2
	}

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", opt.workload, opt.seed, opt.seconds, trace)
	fmt.Fprintf(stdout, "meta %s\n", collectMeta())
	rep := newReport(stderr)
	begin := time.Now()
	err := runSimChild(opt, time.Duration(simShare*float64(opt.seconds)*float64(time.Second)), rep)
	if err == nil {
		err = runServe(opt, spec, rep)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.layer("error_rate", "ratio", float64(rep.Failed)/float64(rep.Attempted), rep.Attempted)
	if !opt.trace {
		var setup float64
		for _, s := range rep.SetupParts {
			setup += s
		}
		rep.endToEnd("setup_s", "s", setup, len(rep.SetupParts))
	}
	fmt.Fprintf(stderr, "perfbench: run took %.1fs\n", time.Since(begin).Seconds())
	rep.print(stdout, opt.trace)
	if !rep.correct() {
		return 1
	}
	return 0
}

// metric is one measured figure. Samples is how many observations it
// summarizes (0 when it is not a statistic, such as a ladder search result).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// report collects a run's metrics, counts and correctness problems.
type report struct {
	EndToEnd   map[string]metric `json:"end_to_end"`
	Layers     map[string]metric `json:"layers"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Problems   []string          `json:"problems"`
	SetupParts []float64         `json:"setup_parts"` // seconds, summed into setup_s
	log        io.Writer         // progress and problems, as they happen
}

func newReport(log io.Writer) *report {
	return &report{EndToEnd: map[string]metric{}, Layers: map[string]metric{}, log: log}
}

func (r *report) endToEnd(name, unit string, v float64, samples int) {
	r.EndToEnd[name] = metric{v, unit, samples}
}

func (r *report) layer(name, unit string, v float64, samples int) {
	r.Layers[name] = metric{v, unit, samples}
}

// problem records a correctness failure; any problem makes the run
// incorrect.
func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(r.log, "perfbench: FAIL:", msg)
	r.Problems = append(r.Problems, msg)
}

func (r *report) merge(o *report) {
	for k, v := range o.EndToEnd {
		r.EndToEnd[k] = v
	}
	for k, v := range o.Layers {
		r.Layers[k] = v
	}
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Problems = append(r.Problems, o.Problems...)
	r.SetupParts = append(r.SetupParts, o.SetupParts...)
}

func (r *report) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// print writes every metric the run measured as a table, end-to-end
// metrics first, then the result line: one JSON object with the run's
// kind of metrics (per-layer when traced) as value and unit.
func (r *report) print(w io.Writer, trace bool) {
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]out{}}
	for _, sec := range []struct {
		title  string
		ms     map[string]metric
		result bool
	}{{"end-to-end", r.EndToEnd, !trace}, {"per-layer", r.Layers, trace}} {
		if len(sec.ms) == 0 {
			continue
		}
		names := make([]string, 0, len(sec.ms))
		for k := range sec.ms {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "%-30s %14s  %-6s %s\n", sec.title, "value", "unit", "samples")
		for _, k := range names {
			m := sec.ms[k]
			fmt.Fprintf(w, "  %-28s %14.4f  %-6s %d\n", k, m.Value, m.Unit, m.Samples)
			if sec.result {
				result.Metrics[k] = out{m.Value, m.Unit}
			}
		}
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.correct())
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(r.log, "perfbench:", err)
		return
	}
	fmt.Fprintln(w, string(line))
}

// collectMeta describes the machine and the code under test: results are
// comparable only when these match.
func collectMeta() string {
	meta := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit(),
	}
	b, err := json.Marshal(meta)
	if err != nil {
		return "{}"
	}
	return string(b)
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
