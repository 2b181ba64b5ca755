// Command ftload is the open-loop load generator for ftserve's tenant mode:
// it drives /v1/route with a configurable rate, concurrency, tenant set, and
// workload mix, folds every request latency into a log2 histogram, and
// scrapes the server's /metrics while the load is in flight. Every scrape is
// gated: the exposition must be accepted by the repo's own validator, and the
// per-tenant conservation law — offered == delivered + dropped + deferred —
// must hold exactly. After the run it asserts the latency SLO (-slo-p99) and
// exits non-zero if any gate failed, so a soak run doubles as an end-to-end
// telemetry check.
//
// The generator is open-loop when -rate is set: arrivals are released by a
// pacer at the target rate regardless of completions, so server-side queueing
// shows up as latency (and 429 backpressure) instead of being hidden by
// coordinated omission. With -rate 0 it runs closed-loop: every worker fires
// its next request as soon as the previous one completes.
//
// With -batch N > 1 requests are sent as NDJSON batches of N lines per POST;
// each line still counts as one request. In batch mode the latency histogram
// records the server-reported per-request latency (queue wait + delivery);
// in single mode it records end-to-end wall clock.
//
// Usage examples:
//
//	ftload -addr http://127.0.0.1:8080 -tenants alpha,beta -requests 100000
//	ftload -tenants alpha -rate 5000 -duration 30s -slo-p99 20ms
//	ftload -tenants alpha,beta,gamma -requests 1000000 -batch 100 -concurrency 16
//
// Exit status: 0 all gates passed, 1 runtime or gate failure, 2 usage error.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fattree/internal/obsv"
)

// config is the parsed ftload command line.
type config struct {
	addr        string
	tenants     []string
	workloads   []string
	rate        float64
	concurrency int
	batch       int
	k           int
	duration    time.Duration
	requests    int64
	sloP99      time.Duration
	seed        int64
	scrape      time.Duration
	timeout     time.Duration
}

// parseConfig parses and validates args; any error is a usage error (exit 2).
func parseConfig(args []string) (config, error) {
	var cfg config
	var tenants, workloads string
	fs := flag.NewFlagSet("ftload", flag.ContinueOnError)
	var usage bytes.Buffer
	fs.SetOutput(&usage)
	fs.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8080", "ftserve base URL (tenant mode)")
	fs.StringVar(&tenants, "tenants", "", "comma-separated tenant names to spread load over (required)")
	fs.StringVar(&workloads, "workloads", "perm,random", "comma-separated workload mix, assigned round-robin")
	fs.Float64Var(&cfg.rate, "rate", 0, "offered request rate per second across all workers (0 = closed loop)")
	fs.IntVar(&cfg.concurrency, "concurrency", 8, "concurrent client workers")
	fs.IntVar(&cfg.batch, "batch", 1, "requests per POST: 1 = single JSON, >1 = NDJSON batch lines")
	fs.IntVar(&cfg.k, "k", 0, "message count for random/local/hotspot workloads (0 = server default)")
	fs.DurationVar(&cfg.duration, "duration", 0, "stop after this long (0 = no time bound)")
	fs.Int64Var(&cfg.requests, "requests", 0, "stop after this many requests (0 = no count bound)")
	fs.DurationVar(&cfg.sloP99, "slo-p99", 0, "fail (exit 1) if the p99 request latency exceeds this (0 = no gate)")
	fs.Int64Var(&cfg.seed, "seed", 1, "base workload seed (varied per request)")
	fs.DurationVar(&cfg.scrape, "scrape", 2*time.Second, "gate /metrics at this interval while loading (0 = final scrape only)")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request HTTP timeout")
	if err := fs.Parse(args); err != nil {
		return cfg, fmt.Errorf("%w\n%s", err, usage.String())
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if tenants == "" {
		return cfg, fmt.Errorf("-tenants is required (the ftserve tenant set to load)")
	}
	for _, name := range strings.Split(tenants, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return cfg, fmt.Errorf("empty tenant name in -tenants")
		}
		cfg.tenants = append(cfg.tenants, name)
	}
	for _, w := range strings.Split(workloads, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			return cfg, fmt.Errorf("empty workload name in -workloads")
		}
		cfg.workloads = append(cfg.workloads, w)
	}
	if cfg.rate < 0 {
		return cfg, fmt.Errorf("-rate must be non-negative (got %v)", cfg.rate)
	}
	if cfg.concurrency < 1 {
		return cfg, fmt.Errorf("-concurrency must be >= 1 (got %d)", cfg.concurrency)
	}
	if cfg.batch < 1 {
		return cfg, fmt.Errorf("-batch must be >= 1 (got %d)", cfg.batch)
	}
	if cfg.k < 0 {
		return cfg, fmt.Errorf("-k must be non-negative (got %d)", cfg.k)
	}
	if cfg.requests < 0 || cfg.duration < 0 || cfg.scrape < 0 {
		return cfg, fmt.Errorf("-requests, -duration, and -scrape must be non-negative")
	}
	if cfg.requests == 0 && cfg.duration == 0 {
		return cfg, fmt.Errorf("need a stop condition: set -requests and/or -duration")
	}
	if cfg.timeout <= 0 {
		return cfg, fmt.Errorf("-timeout must be positive (got %v)", cfg.timeout)
	}
	if !strings.Contains(cfg.addr, "://") {
		cfg.addr = "http://" + cfg.addr
	}
	cfg.addr = strings.TrimRight(cfg.addr, "/")
	return cfg, nil
}

// routeWire is the /v1/route request body ftload emits.
type routeWire struct {
	Tenant   string `json:"tenant"`
	Workload string `json:"workload"`
	K        int    `json:"k,omitempty"`
	Seed     int64  `json:"seed"`
}

// routeResp is the subset of the /v1/route response ftload reads.
type routeResp struct {
	Tenant      string `json:"tenant"`
	Delivered   int    `json:"delivered"`
	QueueWaitUS int64  `json:"queue_wait_us"`
	DurationUS  int64  `json:"duration_us"`
	Error       string `json:"error"`
	RetryAfterS int    `json:"retry_after_s"`
}

// loader is the shared state of one load run.
type loader struct {
	cfg    config
	client *http.Client

	seq    atomic.Int64 // request sequence, also the budget ledger
	ok     atomic.Int64 // 200 responses / clean batch lines
	reject atomic.Int64 // 429 backpressure rejections
	drain  atomic.Int64 // 503 drain refusals
	failed atomic.Int64 // anything else (transport errors, 4xx, stalls)

	tokens chan struct{} // open-loop pacer output (nil when closed-loop)

	mu  sync.Mutex
	lat obsv.Hist // per-request latency, microseconds

	gateMu sync.Mutex
	gates  []string // scrape-gate violations, reported at exit
}

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftload: %v\n", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ftload: %v\n", err)
		os.Exit(1)
	}
}

// run executes the load, the scrape gates, and the final SLO assertion.
func run(cfg config) error {
	l := &loader{
		cfg: cfg,
		lat: obsv.NewLog2Hist(25), // 1µs .. ~33s
		client: &http.Client{
			Timeout: cfg.timeout,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.concurrency * 2,
				MaxIdleConnsPerHost: cfg.concurrency * 2,
			},
		},
	}

	// Only a signal cancels requests in flight. -duration ends the pacing
	// and stops workers from starting new requests; the ones already sent
	// finish and are counted.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx := sigCtx
	if cfg.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(sigCtx, cfg.duration)
		defer cancel()
	}

	var pacer sync.WaitGroup
	if cfg.rate > 0 {
		l.tokens = make(chan struct{}, 1<<14)
		pacer.Add(1)
		go func() {
			defer pacer.Done()
			l.pace(ctx)
		}()
	}

	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		l.scrapeLoop(ctx)
	}()

	begin := time.Now()
	var workers sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			l.worker(ctx, sigCtx)
		}()
	}
	workers.Wait()
	elapsed := time.Since(begin)
	stop() // release the pacer and the scrape loop
	pacer.Wait()
	<-scrapeDone

	// Final gated scrape: the post-load steady state must validate too.
	if err := l.checkScrape(); err != nil {
		l.violation(fmt.Sprintf("final scrape: %v", err))
	}
	return l.report(elapsed)
}

// pace releases one token per scheduled arrival at the target rate. Fractions
// accumulate across ticks so low rates stay exact.
func (l *loader) pace(ctx context.Context) {
	const tick = 5 * time.Millisecond
	t := time.NewTicker(tick)
	defer t.Stop()
	var carry float64
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			carry += l.cfg.rate * tick.Seconds()
			for ; carry >= 1; carry-- {
				select {
				case l.tokens <- struct{}{}:
				case <-ctx.Done():
					return
				}
			}
		}
	}
}

// claim reserves up to want requests against the -requests budget, returning
// the first reserved sequence number and how many were granted (0 = spent).
func (l *loader) claim(want int64) (first, granted int64) {
	if l.cfg.requests == 0 {
		end := l.seq.Add(want)
		return end - want, want
	}
	for {
		cur := l.seq.Load()
		left := l.cfg.requests - cur
		if left <= 0 {
			return 0, 0
		}
		grant := want
		if grant > left {
			grant = left
		}
		if l.seq.CompareAndSwap(cur, cur+grant) {
			return cur, grant
		}
	}
}

// worker drives requests until the budget is spent or ctx ends. Requests
// are sent under reqCtx, so ending ctx never cancels one in flight.
func (l *loader) worker(ctx, reqCtx context.Context) {
	body := make([]byte, 0, 256*l.cfg.batch)
	for ctx.Err() == nil {
		if l.tokens != nil {
			select {
			case <-ctx.Done():
				return
			case <-l.tokens:
			}
		}
		first, n := l.claim(int64(l.cfg.batch))
		if n == 0 {
			return
		}
		if l.cfg.batch == 1 {
			l.fireSingle(reqCtx, first)
			continue
		}
		l.fireBatch(reqCtx, body, first, int(n))
	}
}

// request builds the wire body for request number seq.
func (l *loader) request(seq int64) routeWire {
	return routeWire{
		Tenant:   l.cfg.tenants[seq%int64(len(l.cfg.tenants))],
		Workload: l.cfg.workloads[seq%int64(len(l.cfg.workloads))],
		K:        l.cfg.k,
		Seed:     l.cfg.seed + seq,
	}
}

// fireSingle sends one JSON request and records its end-to-end wall latency.
// discard drains an already-classified response body so the HTTP client can
// reuse the connection. A failed drain means the server hung up mid-body;
// the request outcome was decided by the status line, so the only cost is
// the pooled connection.
func discard(r io.Reader) {
	if _, err := io.Copy(io.Discard, r); err != nil {
		return // connection is dead; Close will drop it from the pool
	}
}

func (l *loader) fireSingle(ctx context.Context, seq int64) {
	payload, err := json.Marshal(l.request(seq))
	if err != nil {
		l.failed.Add(1)
		return
	}
	begin := time.Now()
	resp, err := l.post(ctx, "application/json", payload)
	if err != nil {
		l.failed.Add(1)
		return
	}
	defer resp.Body.Close()
	discard(resp.Body)
	wall := time.Since(begin).Microseconds()
	switch resp.StatusCode {
	case http.StatusOK:
		l.ok.Add(1)
		l.observe(wall)
	case http.StatusTooManyRequests:
		l.reject.Add(1)
	case http.StatusServiceUnavailable:
		l.drain.Add(1)
	default:
		l.failed.Add(1)
	}
}

// fireBatch sends n requests starting at sequence first as one NDJSON POST
// and records the server-reported per-request latencies.
func (l *loader) fireBatch(ctx context.Context, scratch []byte, first int64, n int) {
	body := scratch[:0]
	for i := 0; i < n; i++ {
		line, err := json.Marshal(l.request(first + int64(i)))
		if err != nil {
			l.failed.Add(int64(n))
			return
		}
		body = append(body, line...)
		body = append(body, '\n')
	}
	resp, err := l.post(ctx, "application/x-ndjson", body)
	if err != nil {
		l.failed.Add(int64(n))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		discard(resp.Body)
		l.failed.Add(int64(n))
		return
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		lines++
		var r routeResp
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			l.failed.Add(1)
			continue
		}
		switch {
		case r.Error == "":
			l.ok.Add(1)
			l.observe(r.QueueWaitUS + r.DurationUS)
		case r.RetryAfterS > 0:
			l.reject.Add(1)
		case strings.Contains(r.Error, "draining"):
			l.drain.Add(1)
		default:
			l.failed.Add(1)
		}
	}
	if lines < n { // short response: the tail never got an answer
		l.failed.Add(int64(n - lines))
	}
}

// post issues one POST /v1/route.
func (l *loader) post(ctx context.Context, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		l.cfg.addr+"/v1/route", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return l.client.Do(req)
}

// observe folds one request latency (µs) into the shared histogram.
func (l *loader) observe(us int64) {
	l.mu.Lock()
	l.lat.Observe(us)
	l.mu.Unlock()
}

// violation records one failed gate.
func (l *loader) violation(msg string) {
	l.gateMu.Lock()
	l.gates = append(l.gates, msg)
	l.gateMu.Unlock()
}

// scrapeLoop gates /metrics at the configured interval while load runs.
func (l *loader) scrapeLoop(ctx context.Context) {
	if l.cfg.scrape == 0 {
		return
	}
	t := time.NewTicker(l.cfg.scrape)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := l.checkScrape(); err != nil {
				l.violation(fmt.Sprintf("scrape: %v", err))
			}
		}
	}
}

// checkScrape fetches /metrics once and asserts the exposition gates: the
// text must pass the repo's own validator, every loaded tenant must be
// present, and the per-tenant conservation law must hold exactly.
func (l *loader) checkScrape() error {
	req, err := http.NewRequest(http.MethodGet, l.cfg.addr+"/metrics", nil)
	if err != nil {
		return err
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	samples, err := obsv.ParseExposition(text)
	if err != nil {
		return fmt.Errorf("invalid exposition: %w", err)
	}
	return checkConservation(samples, l.cfg.tenants)
}

// checkConservation asserts offered == delivered + dropped + deferred for
// every loaded tenant's engine counters in one parsed scrape.
func checkConservation(samples []obsv.Sample, tenants []string) error {
	type flow struct {
		offered, delivered, dropped, deferred float64
		seen                                  bool
	}
	flows := make(map[string]*flow, len(tenants))
	for _, tn := range tenants {
		flows[tn] = &flow{}
	}
	for _, s := range samples {
		f, ok := flows[s.Label("tenant")]
		if !ok {
			continue
		}
		switch s.Name {
		case "fattree_messages_offered_total":
			f.offered, f.seen = s.Value, true
		case "fattree_messages_delivered_total":
			f.delivered = s.Value
		case "fattree_messages_dropped_total":
			f.dropped = s.Value
		case "fattree_messages_deferred_total":
			f.deferred = s.Value
		}
	}
	for _, tn := range tenants {
		f := flows[tn]
		if !f.seen {
			return fmt.Errorf("tenant %q missing from /metrics (is ftserve running with -tenants?)", tn)
		}
		if f.offered != f.delivered+f.dropped+f.deferred {
			return fmt.Errorf("tenant %q conservation broken: offered %v != delivered %v + dropped %v + deferred %v",
				tn, f.offered, f.delivered, f.dropped, f.deferred)
		}
	}
	return nil
}

// quantileString renders one histogram quantile for the summary line.
func quantileString(h *obsv.Hist, q float64) string {
	b, ok := h.Quantile(q)
	if !ok {
		if h.Count() == 0 {
			return "n/a"
		}
		return ">33s" // overflow bucket
	}
	return (time.Duration(b) * time.Microsecond).String()
}

// report prints the run summary and returns an error if any gate failed.
func (l *loader) report(elapsed time.Duration) error {
	sent := l.ok.Load() + l.reject.Load() + l.drain.Load() + l.failed.Load()
	rate := float64(sent) / elapsed.Seconds()
	fmt.Printf("ftload: %d requests in %v (%.0f req/s): %d ok, %d rejected (429), %d drained (503), %d failed\n",
		sent, elapsed.Round(time.Millisecond), rate,
		l.ok.Load(), l.reject.Load(), l.drain.Load(), l.failed.Load())
	fmt.Printf("ftload: latency p50<=%s p95<=%s p99<=%s\n",
		quantileString(&l.lat, 0.50), quantileString(&l.lat, 0.95), quantileString(&l.lat, 0.99))

	if l.failed.Load() > 0 {
		l.violation(fmt.Sprintf("%d requests failed outright", l.failed.Load()))
	}
	if l.ok.Load() == 0 {
		l.violation("no request succeeded")
	}
	if l.cfg.sloP99 > 0 {
		p99, ok := l.lat.Quantile(0.99)
		budget := l.cfg.sloP99.Microseconds()
		switch {
		case !ok && l.lat.Count() > 0:
			l.violation(fmt.Sprintf("p99 SLO %v: latency overflowed the histogram", l.cfg.sloP99))
		case ok && p99 > budget:
			l.violation(fmt.Sprintf("p99 SLO %v: p99 bucket bound %v exceeds it",
				l.cfg.sloP99, time.Duration(p99)*time.Microsecond))
		default:
			fmt.Printf("ftload: p99 SLO %v: PASS\n", l.cfg.sloP99)
		}
	}

	l.gateMu.Lock()
	gates := l.gates
	l.gateMu.Unlock()
	if len(gates) > 0 {
		for _, g := range gates {
			fmt.Printf("ftload: GATE FAILED: %s\n", g)
		}
		return fmt.Errorf("%d gate(s) failed", len(gates))
	}
	fmt.Println("ftload: all gates passed")
	return nil
}
