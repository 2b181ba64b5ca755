package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"time"

	"fattree"
)

// This file is the serve phase: ftserve in tenant mode on a 256-processor
// universal fat-tree, driven over loopback by the open-loop client with
// explicit message sets, at two fixed rates and up a rate ladder.

// serveSpec is one serve workload.
type serveSpec struct {
	tenants     int
	lo, hi      float64       // the two fixed rates, requests/s
	limitMS     float64       // p90 latency limit a max_rps rung must meet
	scrapeEvery time.Duration // /metrics pull period during every step
	pool        int           // distinct message sets; request i carries set i mod pool
	set         func(base int64, j int) fattree.MessageSet
}

// serveTreeN and serveTreeW are the tree ftserve serves: -n 256 with its
// default root capacity n/4.
const serveTreeN, serveTreeW = 256, 64

var serveSpecs = map[string]serveSpec{
	// 16-message local sets (~360-byte bodies, 1-2 delivery cycles): the
	// engine is a quarter of a request or less, so the HTTP rim, the
	// dispatcher hand-off and the telemetry dominate; frequent scrapes over
	// 16 tenants put exposition next to the request path.
	"serve-small": {
		tenants: 16, lo: 1000, hi: 3000, limitMS: 5, scrapeEvery: 250 * time.Millisecond, pool: 4096,
		set: func(base int64, j int) fattree.MessageSet {
			return fattree.KLocal(serveTreeN, 16, 4, base+int64(j))
		},
	},
	// Alternating full permutations and 1024-message random sets (5-20 KB
	// bodies, 3-15 cycles): RunServe and JSON decode dominate.
	"serve-large": {
		tenants: 4, lo: 150, hi: 350, limitMS: 20, scrapeEvery: time.Second, pool: 256,
		set: func(base int64, j int) fattree.MessageSet {
			if j%2 == 0 {
				return fattree.RandomPermutation(serveTreeN, base+int64(j))
			}
			return fattree.Random(serveTreeN, 4*serveTreeN, base+int64(j))
		},
	},
}

// Ladder geometry: rung k offers lo·ladderStep^k requests/s.
const (
	ladderStep   = 1.05
	ladderStride = 4 // rungs per galloping step
	ladderTop    = 80
)

// serveRun is the state of one serve phase.
type serveRun struct {
	opt   options
	spec  serveSpec
	names []string  // tenant names, t00..
	pool  []request // prebuilt requests with their replayed answers
	rep   *report
	conns int
	seq   int // pool index of the next step's first request
	// replay timings, microseconds per call (expose: milliseconds)
	validateUS, serveUS, obsvUS, exposeMS []float64
}

// runServe runs the serve phase and adds its metrics to rep.
func runServe(opt options, spec serveSpec, rep *report) error {
	// The client uses one connection per CPU.
	r := &serveRun{opt: opt, spec: spec, rep: rep, conns: runtime.NumCPU()}
	for i := 0; i < spec.tenants; i++ {
		r.names = append(r.names, fmt.Sprintf("t%02d", i))
	}
	if err := r.buildPool(); err != nil {
		return err
	}
	setupS, err := r.measureStartup()
	if err != nil {
		return err
	}
	rep.SetupParts = append(rep.SetupParts, setupS)
	if opt.trace {
		return r.traced()
	}
	return r.plain()
}

// buildPool generates the workload's message sets, prebuilds their request
// bytes, and replays each set in-process on per-tenant engines, observers
// and RED blocks shaped like ftserve's. The replay gives every request its
// expected answer and times the library calls ftserve makes per request.
func (r *serveRun) buildPool() error {
	tree := fattree.NewUniversal(serveTreeN, serveTreeW)
	type tenantState struct {
		eng *fattree.Engine
		obs *fattree.Observer
		red *fattree.RED
	}
	ts := make([]tenantState, r.spec.tenants)
	for i := range ts {
		obs := fattree.NewObserver(tree)
		ts[i] = tenantState{
			eng: fattree.NewEngineWithOptions(tree, fattree.SwitchIdeal, int64(i+1), fattree.Options{Workers: 1, Observer: obs}),
			obs: obs, red: fattree.NewRED(),
		}
	}
	spans := fattree.NewSpanRing(4096)
	base := r.opt.seed << 20
	type wireMsg struct {
		Src int `json:"src"`
		Dst int `json:"dst"`
	}
	for j := 0; j < r.spec.pool; j++ {
		ms := r.spec.set(base, j)
		tn := j % r.spec.tenants
		t := &ts[tn]

		t0 := time.Now()
		if err := ms.Validate(tree); err != nil {
			return fmt.Errorf("generated set %d is invalid: %w", j, err)
		}
		t1 := time.Now()
		st := t.eng.RunServe(ms)
		t2 := time.Now()
		trace := uint64(j + 1)
		t.red.ObserveRequest(int64(st.Cycles), t2.Sub(t1).Microseconds(), trace, false)
		for _, kind := range pushedPerRequest {
			spans.Push(fattree.Span{Trace: trace, Tenant: int32(tn), Kind: kind, Start: spans.Now()})
		}
		t3 := time.Now()
		r.validateUS = append(r.validateUS, us(t1.Sub(t0)))
		r.serveUS = append(r.serveUS, us(t2.Sub(t1)))
		r.obsvUS = append(r.obsvUS, us(t3.Sub(t2)))
		if st.Delivered != len(ms) {
			return fmt.Errorf("replay of set %d delivered %d of %d", j, st.Delivered, len(ms))
		}

		wire := struct {
			Tenant   string    `json:"tenant"`
			Messages []wireMsg `json:"messages"`
		}{Tenant: r.names[tn]}
		for _, m := range ms {
			wire.Messages = append(wire.Messages, wireMsg{m.Src, m.Dst})
		}
		body, err := json.Marshal(wire)
		if err != nil {
			return err
		}
		r.pool = append(r.pool, request{
			raw:  postRequest(body),
			want: expect{tenant: r.names[tn], msgs: len(ms), stats: st},
		})
	}
	// The exposition ftserve renders per scrape: every tenant's RED block
	// and observer snapshot.
	var buf bytes.Buffer
	for k := 0; k < 20; k++ {
		buf.Reset()
		t0 := time.Now()
		reds := make([]fattree.LabeledRED, len(ts))
		snaps := make([]fattree.LabeledSnapshot, len(ts))
		for i := range ts {
			labels := []fattree.PromLabel{{Name: "tenant", Value: r.names[i]}}
			reds[i] = fattree.LabeledRED{Labels: labels, Snap: ts[i].red.Snapshot()}
			snaps[i] = fattree.LabeledSnapshot{Labels: labels, Snap: ts[i].obs.Snapshot()}
		}
		if err := fattree.WriteREDPrometheus(&buf, reds...); err != nil {
			return err
		}
		if err := fattree.WritePrometheus(&buf, snaps...); err != nil {
			return err
		}
		r.exposeMS = append(r.exposeMS, float64(time.Since(t0))/1e6)
	}
	if _, err := checkScrape(buf.Bytes(), r.names); err != nil {
		return fmt.Errorf("replayed exposition: %w", err)
	}
	return nil
}

// pushedPerRequest are the spans ftserve's dispatcher and handler push for
// each request once the request is decoded.
var pushedPerRequest = [3]fattree.SpanKind{fattree.SpanQueue, fattree.SpanEngine, fattree.SpanRespond}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ftserveArgs is ftserve's command line for this workload.
func (r *serveRun) ftserveArgs(spanCap int) []string {
	args := []string{"-n", fmt.Sprint(serveTreeN), "-tenants", strings.Join(r.names, ",")}
	if spanCap > 0 {
		args = append(args, "-span-cap", fmt.Sprint(spanCap))
	}
	return args
}

// startupRuns is how many times the set-up time is measured per run.
const startupRuns = 7

// measureStartup starts and stops ftserve startupRuns times and returns the
// median time from exec to the first /readyz 200, in seconds.
func (r *serveRun) measureStartup() (float64, error) {
	var ds []float64
	for k := 0; k < startupRuns; k++ {
		p, d, err := startFtserve(r.opt.ftserve, r.ftserveArgs(0))
		if err != nil {
			return 0, err
		}
		if err := p.stop(); err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	s := median(ds)
	r.rep.layer("setup.ftserve_ms", "ms", s*1e3, len(ds))
	return s, nil
}

// step runs one fixed-rate step against p and folds its requests into the
// report's attempted/failed counts.
func (r *serveRun) step(p *ftserveProc, rate float64, dur time.Duration) *stepResult {
	res := runStep(p.addr, r.conns, r.pool, stepConfig{rate: rate, dur: dur, first: r.seq})
	r.seq += len(res.samples)
	r.rep.Attempted += len(res.samples)
	if n := res.failed(); n > 0 {
		r.rep.Failed += n
		r.rep.problem("%d of %d requests at %.0f req/s failed, first: %v", n, len(res.samples), rate, res.errs)
	}
	time.Sleep(50 * time.Millisecond) // let the server settle between steps
	return res
}

// checkScrapes checks every pull a scraper made and folds them into the
// report's attempted/failed counts.
func (r *serveRun) checkScrapes(scs []scrape) {
	for _, sc := range scs {
		r.rep.Attempted++
		err := sc.err
		if err == "" {
			if _, cerr := checkScrape(sc.body, r.names); cerr != nil {
				err = cerr.Error()
			}
		}
		if err != "" {
			r.rep.Failed++
			r.rep.problem("scrape: %s", err)
		}
	}
}

// Run layout. A fixed rate is measured in rounds of one lo and one hi
// segment, so slow drifts in the machine's speed reach both rates alike;
// a rate's percentile is the median over its segments of each segment's
// percentile, so a stall that spoils a minority of segments does not move
// it. Shares are of --seconds.
const (
	fixedShare = 1 - simShare           // all fixed-rate rounds
	probeSegs  = 3                      // segments per ladder rung
	probeSeg   = 500 * time.Millisecond // length of one ladder segment
	warmup     = 500 * time.Millisecond // unmeasured step that fills ftserve's pools
)

// segment is the length of one fixed-rate segment: long enough for 150
// requests at lo, so a segment's p90 has 15 samples beyond it.
func (r *serveRun) segment() time.Duration {
	return max(500*time.Millisecond, time.Duration(150/r.spec.lo*float64(time.Second)))
}

// rounds is the number of lo+hi rounds that fit in the fixed-rate share.
func (r *serveRun) rounds() int {
	share := fixedShare * float64(r.opt.seconds) * float64(time.Second)
	return max(3, int(share/float64(2*r.segment())))
}

// segPercentiles returns the median over segments of each segment's p50
// and p90, and the number of answered requests they cover.
func segPercentiles(segs []*stepResult) (p50, p90 float64, n int) {
	var a, b []float64
	for _, s := range segs {
		lat := s.latenciesMS()
		if len(lat) == 0 {
			continue
		}
		a = append(a, percentile(lat, 50))
		b = append(b, percentile(lat, 90))
		n += len(lat)
	}
	if n == 0 {
		return 0, 0, 0
	}
	return median(a), median(b), n
}

// runRounds runs the fixed-rate rounds: a lo and a hi segment on base, and,
// when traced is not nil, a hi segment on traced. It returns the segments
// and base's CPU time over its hi segments.
func (r *serveRun) runRounds(base, traced *ftserveProc) (los, his, tracedHis []*stepResult, cpu time.Duration, err error) {
	pid := base.cmd.Process.Pid
	for k := 0; k < r.rounds(); k++ {
		los = append(los, r.step(base, r.spec.lo, r.segment()))
		// The traced segment goes first on odd rounds, so neither server
		// always meets CPUs just woken from the lo segment.
		if traced != nil && k%2 == 1 {
			tracedHis = append(tracedHis, r.step(traced, r.spec.hi, r.segment()))
		}
		c0, err := cpuTime(pid)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		his = append(his, r.step(base, r.spec.hi, r.segment()))
		c1, err := cpuTime(pid)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		cpu += c1 - c0
		if traced != nil && k%2 == 0 {
			tracedHis = append(tracedHis, r.step(traced, r.spec.hi, r.segment()))
		}
	}
	for _, st := range []struct {
		tag  string
		segs []*stepResult
	}{{"lo", los}, {"hi", his}} {
		p50, p90, n := segPercentiles(st.segs)
		if n == 0 {
			return nil, nil, nil, 0, fmt.Errorf("no request answered at %s", st.tag)
		}
		r.rep.layer("p50_ms."+st.tag, "ms", p50, n)
		r.rep.layer("p90_ms."+st.tag, "ms", p90, n)
	}
	return los, his, tracedHis, cpu, nil
}

// plain is the end-to-end serve measurement.
func (r *serveRun) plain() error {
	p, _, err := startFtserve(r.opt.ftserve, r.ftserveArgs(0))
	if err != nil {
		return err
	}
	defer p.kill()
	sc := startScraper(p.addr, r.spec.scrapeEvery)
	r.step(p, r.spec.lo, warmup)
	_, his, _, cpu, err := r.runRounds(p, nil)
	if err != nil {
		return err
	}
	served := 0
	for _, h := range his {
		served += len(h.samples) - h.failed()
	}
	if served > 0 {
		r.rep.endToEnd("cpu_us_per_req", "us", us(cpu)/float64(served), served)
	}
	r.checkScrapes(sc.finish())
	rss, err := peakRSSMB(p.cmd.Process.Pid)
	if err != nil {
		return err
	}
	r.rep.endToEnd("peak_rss_mb", "MB", rss, 1)
	return p.stop()
}

// passes reports whether a rate meets the max_rps conditions: no request
// failed, and in most of its segments the p90 is within the workload's
// limit and the generator did not fall further behind.
func (r *serveRun) passes(segs []*stepResult) bool {
	ok := 0
	for _, s := range segs {
		if s.failed() > 0 {
			return false
		}
		lat := s.latenciesMS()
		if len(lat) > 0 && percentile(lat, 90) <= r.spec.limitMS && !s.latenessGrows(r.spec.limitMS*1e3/2) {
			ok++
		}
	}
	return 2*ok > len(segs)
}

// maxRPS searches the rate ladder for the highest rung that passes, with
// the fixed lo and hi rates already measured as the first known points.
func (r *serveRun) maxRPS(p *ftserveProc, los, his []*stepResult) float64 {
	rung := func(k int) float64 { return r.spec.lo * math.Pow(ladderStep, float64(k)) }
	// kHi is the highest rung at or below hi.
	kHi := int(math.Floor(math.Log(r.spec.hi/r.spec.lo)/math.Log(ladderStep) + 1e-9))
	known, top := -1, ladderTop
	switch {
	case r.passes(his):
		known = kHi
	case r.passes(los):
		known, top = 0, kHi
	default:
		top = kHi
	}
	best := searchLadder(known, top, ladderStride, func(k int) bool {
		var segs []*stepResult
		for i := 0; i < probeSegs; i++ {
			segs = append(segs, r.step(p, rung(k), probeSeg))
		}
		ok := r.passes(segs)
		_, p90, _ := segPercentiles(segs)
		fmt.Fprintf(r.rep.log, "perfbench: ladder rung %d, %.0f req/s: p90 %.3f ms, pass %v\n", k, rung(k), p90, ok)
		return ok
	})
	if best < 0 {
		r.rep.problem("no ladder rung met the p90 limit of %.0f ms", r.spec.limitMS)
		return 0
	}
	return rung(best)
}

// traced is the per-layer serve measurement. It runs two ftserve processes
// side by side: a plain one, and one whose span ring holds every span of
// the run. Each round adds one hi segment on the traced server to the plain
// server's lo and hi segments, so the difference between the two servers
// at hi is the tracing overhead; the traced segments are broken down stage
// by stage. The rate ladder then runs on the plain server.
func (r *serveRun) traced() error {
	base, _, err := startFtserve(r.opt.ftserve, r.ftserveArgs(0))
	if err != nil {
		return err
	}
	defer base.kill()
	sent := r.spec.lo*warmup.Seconds() + float64(r.rounds())*r.spec.hi*r.segment().Seconds()
	tp, _, err := startFtserve(r.opt.ftserve, r.ftserveArgs(4*int(sent)+4096))
	if err != nil {
		return err
	}
	defer tp.kill()
	scBase := startScraper(base.addr, r.spec.scrapeEvery)
	scTraced := startScraper(tp.addr, r.spec.scrapeEvery)

	r.step(base, r.spec.lo, warmup)
	toTraced := len(r.step(tp, r.spec.lo, warmup).samples)
	los, his, tracedHi, _, err := r.runRounds(base, tp)
	if err != nil {
		return err
	}
	for _, s := range tracedHi {
		toTraced += len(s.samples)
	}
	r.checkScrapes(scTraced.finish())

	status, body, err := get(tp.addr, "/debug/spans.jsonl")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("fetching spans: status %d, %v", status, err)
	}
	spans, err := parseSpans(body)
	if err != nil {
		return err
	}
	if len(spans) != 4*toTraced {
		r.rep.Failed++
		r.rep.problem("ftserve exported %d spans for %d requests, want %d", len(spans), toTraced, 4*toTraced)
	}
	hi := &stepResult{}
	for _, s := range tracedHi {
		hi.samples = append(hi.samples, s.samples...)
	}
	if err := r.stageMetrics(spans, hi); err != nil {
		r.rep.Failed++
		r.rep.problem("span breakdown: %v", err)
	}
	plain50, _, _ := segPercentiles(his)
	traced50, _, _ := segPercentiles(tracedHi)
	lat := hi.latenciesMS()
	if len(lat) == 0 || plain50 == 0 {
		return fmt.Errorf("no request answered at hi")
	}
	r.rep.layer("trace.serve_overhead_pct", "%", 100*(traced50/plain50-1), len(lat))
	r.rep.layer("client.p99_ms.hi", "ms", percentile(lat, 99), len(lat))
	r.rep.layer("client.samples.hi", "count", float64(len(lat)), len(lat))
	r.rep.layer("client.late_us.p99", "us", percentile(hi.lateness(0, len(hi.samples)), 99), len(hi.samples))

	status, text, err := get(tp.addr, "/metrics")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("final scrape: status %d, %v", status, err)
	}
	tot, err := checkScrape(text, r.names)
	if err != nil {
		return fmt.Errorf("final scrape: %w", err)
	}
	r.rep.layer("sim.delivered_per_offered", "ratio", tot.delivered/tot.offered, 1)
	r.rep.layer("obsv.queue_peak", "count", tot.queuePeak, 1)
	r.rep.layer("ftserve.rejected", "count", tot.errors, 1)
	if err := tp.stop(); err != nil {
		return err
	}

	r.rep.layer("max_rps", "1/s", r.maxRPS(base, los, his), 0)
	scrapes := scBase.finish()
	r.checkScrapes(scrapes)
	r.scrapeMetrics(scrapes)
	r.replayMetrics()
	return base.stop()
}

// spanLine is one line of /debug/spans.jsonl.
type spanLine struct {
	Trace   string `json:"trace_id"`
	Kind    string `json:"kind"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Cycles  int64  `json:"cycles"`
	Err     bool   `json:"err"`
}

func parseSpans(body []byte) ([]spanLine, error) {
	var out []spanLine
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var s spanLine
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("span line %q: %w", sc.Bytes(), err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// stages are ftserve's span kinds in request order.
var stages = [4]string{"handler", "queue", "engine", "respond"}

// stageMetrics breaks the hi step's requests down by ftserve's four spans.
// The four are consecutive, so each is its own self time; the client's
// round trip minus the time they cover is the residual: HTTP parsing and
// writing outside the spans, loopback, and the handler's wake-up after the
// engine finishes.
func (r *serveRun) stageMetrics(spans []spanLine, hi *stepResult) error {
	byTrace := make(map[string]*[4]spanLine, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Err {
			return fmt.Errorf("span %s/%s marked as an error", s.Trace, s.Kind)
		}
		set := byTrace[s.Trace]
		if set == nil {
			set = &[4]spanLine{}
			byTrace[s.Trace] = set
		}
		for k, name := range stages {
			if s.Kind == name {
				if set[k].Kind != "" {
					return fmt.Errorf("trace %s has two %s spans", s.Trace, name)
				}
				set[k] = *s
			}
		}
	}
	var per [4][]float64
	var residual []float64
	var selfSum [5]float64
	var clientSum, cycles float64
	for _, smp := range hi.samples {
		if !smp.ok {
			continue
		}
		set := byTrace[fattree.TraceID(smp.trace)]
		if set == nil {
			return fmt.Errorf("no spans for trace %s", fattree.TraceID(smp.trace))
		}
		var ivs []interval
		for k := range stages {
			if set[k].Kind == "" {
				return fmt.Errorf("trace %s has no %s span", set[0].Trace, stages[k])
			}
			d := float64(set[k].DurNS)
			per[k] = append(per[k], d/1e3)
			selfSum[k] += d
			ivs = append(ivs, interval{set[k].StartNS, set[k].StartNS + set[k].DurNS})
		}
		client := smp.done - smp.sent
		res := selfTime(client, ivs)
		residual = append(residual, float64(res)/1e3)
		selfSum[4] += float64(res)
		clientSum += float64(client)
		cycles += float64(set[2].Cycles)
	}
	if len(residual) == 0 {
		return fmt.Errorf("no answered requests in the traced step")
	}
	n := len(residual)
	for k := range per {
		per[k] = sortedCopy(per[k])
	}
	residual = sortedCopy(residual)
	l := r.rep.layer
	l("ftserve.handler_us.p50", "us", percentile(per[0], 50), n)
	l("ftserve.handler_us.p90", "us", percentile(per[0], 90), n)
	l("ftserve.queue_us.p50", "us", percentile(per[1], 50), n)
	l("ftserve.queue_us.p90", "us", percentile(per[1], 90), n)
	l("sim.serve_us.p50", "us", percentile(per[2], 50), n)
	l("sim.serve_us.p90", "us", percentile(per[2], 90), n)
	l("sim.serve_us_per_cycle", "us", selfSum[2]/1e3/cycles, n)
	l("sim.cycles_per_req", "count", cycles/float64(n), n)
	l("ftserve.respond_us.p50", "us", percentile(per[3], 50), n)
	l("http.residual_us.p50", "us", percentile(residual, 50), n)
	l("http.residual_us.p90", "us", percentile(residual, 90), n)
	for k, name := range append(stages[:], "residual") {
		l("share."+name+"_pct", "%", 100*selfSum[k]/clientSum, n)
	}
	return nil
}

// scrapeMetrics reports the cost of the /metrics pulls made while the
// plain server was under load.
func (r *serveRun) scrapeMetrics(scrapes []scrape) {
	var ms, size []float64
	for _, sc := range scrapes {
		if sc.err == "" {
			ms = append(ms, float64(sc.dur)/1e6)
			size = append(size, float64(len(sc.body)))
		}
	}
	if len(ms) == 0 {
		r.rep.problem("no successful scrape in the traced steps")
		return
	}
	ms = sortedCopy(ms)
	r.rep.layer("obsv.scrape_ms.p50", "ms", percentile(ms, 50), len(ms))
	r.rep.layer("obsv.scrape_ms.p90", "ms", percentile(ms, 90), len(ms))
	r.rep.layer("obsv.scrape_bytes", "B", median(size), len(size))
}

// replayMetrics reports the uncontended in-process cost of the library
// calls behind each request, timed while the pool was replayed.
func (r *serveRun) replayMetrics() {
	r.rep.layer("replay.validate_us", "us", median(r.validateUS), len(r.validateUS))
	r.rep.layer("replay.serve_us", "us", median(r.serveUS), len(r.serveUS))
	r.rep.layer("replay.obsv_us", "us", median(r.obsvUS), len(r.obsvUS))
	r.rep.layer("replay.expose_ms", "ms", median(r.exposeMS), len(r.exposeMS))
}
