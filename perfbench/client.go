package main

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// This file is the benchmark's open-loop client. Request i of a step is due
// at start + i/rate no matter how earlier requests fared; each of a fixed set
// of keep-alive connections takes the next due request, waits for its due
// time, sends it and reads the answer. When every connection is busy the next
// request goes out late, and its latency still counts from when it was due,
// so a stall shows in every request it delays. A step ends when its last due
// request has been answered: nothing in flight is abandoned.

// request is one prebuilt /v1/route request and its expected answer.
type request struct {
	raw  []byte
	want expect
}

// sample is one request of a step, on the client's clock in nanoseconds
// from the step's start: when it was due, sent, and answered.
type sample struct {
	due, sent, done int64
	trace           uint64 // ftserve's trace ID, from the response
	ok              bool   // answered 200 and equal to the replay
}

// stepConfig describes one fixed-rate step.
type stepConfig struct {
	rate  float64       // requests per second
	dur   time.Duration // span of due times
	first int           // pool index of the step's first request
}

// stepResult is everything a step observed.
type stepResult struct {
	samples []sample
	errs    []string // first few request errors
}

// maxErrs bounds the request errors a step keeps for its report.
const maxErrs = 5

// runStep drives one open-loop step at cfg.rate over conns connections.
func runStep(addr string, conns int, pool []request, cfg stepConfig) *stepResult {
	n := int(cfg.rate * cfg.dur.Seconds())
	res := &stepResult{samples: make([]sample, n)}
	interval := 1e9 / cfg.rate
	start := time.Now().Add(2 * time.Millisecond)
	since := func() int64 { return int64(time.Since(start)) }
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		if len(res.errs) < maxErrs {
			res.errs = append(res.errs, err.Error())
		}
		mu.Unlock()
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A locked thread with a 1µs timer slack wakes within ~10µs of
			// a due time; Go's own timers round sub-millisecond sleeps up to
			// about a millisecond.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			setTimerSlack(1)
			defer setTimerSlack(0)
			h, err := dial(addr)
			if err != nil {
				fail(err)
				return
			}
			defer h.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := sample{due: int64(float64(i) * interval)}
				if d := s.due - since(); d > 0 {
					preciseSleep(time.Duration(d))
				}
				req := &pool[(cfg.first+i)%len(pool)]
				s.sent = since()
				status, body, err := h.roundTrip(req.raw)
				s.done = since()
				if err == nil {
					var resp routeResp
					if resp, err = checkResponse(status, body, req.want); err == nil {
						s.trace, err = strconv.ParseUint(resp.TraceID, 16, 64)
					}
				}
				s.ok = err == nil
				if err != nil {
					fail(err)
				}
				res.samples[i] = s
			}
		}()
	}
	wg.Wait()
	return res
}

// scrape is one /metrics pull.
type scrape struct {
	dur  time.Duration
	body []byte
	err  string
}

// scraper pulls /metrics at a fixed period over its own connection, the
// way a Prometheus server would, for as long as it runs. Bodies are kept
// and checked after the measurement, so checking costs no CPU during it.
type scraper struct {
	stop    chan struct{}
	done    chan struct{}
	scrapes []scrape
}

func startScraper(addr string, period time.Duration) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		h, err := dial(addr)
		if err != nil {
			s.scrapes = append(s.scrapes, scrape{err: err.Error()})
			return
		}
		defer h.close()
		req := getRequest("/metrics")
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			status, body, err := h.roundTrip(req)
			sc := scrape{dur: time.Since(t0), body: body}
			if err != nil {
				sc.err = err.Error()
			} else if status != 200 {
				sc.err = "/metrics status " + strconv.Itoa(status)
			}
			s.scrapes = append(s.scrapes, sc)
		}
	}()
	return s
}

// finish stops the scraper and returns its scrapes.
func (s *scraper) finish() []scrape {
	close(s.stop)
	<-s.done
	return s.scrapes
}

// failed counts the step's requests that were not answered correctly.
func (r *stepResult) failed() int {
	n := 0
	for _, s := range r.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// latenciesMS returns the answered requests' latencies, due to answered, in
// milliseconds, sorted.
func (r *stepResult) latenciesMS() []float64 {
	out := make([]float64, 0, len(r.samples))
	for _, s := range r.samples {
		if s.ok {
			out = append(out, float64(s.done-s.due)/1e6)
		}
	}
	return sortedCopy(out)
}

// lateness returns how late each request was sent, in microseconds, for the
// samples in [from, to) of the step, sorted.
func (r *stepResult) lateness(from, to int) []float64 {
	out := make([]float64, 0, to-from)
	for _, s := range r.samples[from:to] {
		out = append(out, float64(s.sent-s.due)/1e3)
	}
	return sortedCopy(out)
}

// latenessGrows reports whether the generator fell further behind over the
// step: the median lateness of its last quarter exceeds that of its first
// quarter by more than slackUS. A backlog that keeps growing means the
// offered rate is above what the connections can carry.
func (r *stepResult) latenessGrows(slackUS float64) bool {
	q := len(r.samples) / 4
	if q == 0 {
		return false
	}
	first := percentile(r.lateness(0, q), 50)
	last := percentile(r.lateness(len(r.samples)-q, len(r.samples)), 50)
	return last-first > slackUS
}

// preciseSleep sleeps d with nanosleep(2), whose wake-up error is the
// thread's timer slack rather than the Go scheduler's millisecond timer
// granularity.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// setTimerSlack sets the calling thread's timer slack in nanoseconds
// (0 restores the default).
func setTimerSlack(ns uintptr) {
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0) // best effort: a failure only costs wake-up precision
}
