package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fattree"
)

// fakeServe answers every /v1/route request with cycles and counts every
// /metrics pull.
func fakeServe(t *testing.T, cycles int, scrapes *atomic.Int64) string {
	t.Helper()
	var trace atomic.Uint64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			t.Error(err)
		}
		if r.URL.Path == "/metrics" {
			scrapes.Add(1)
			fmt.Fprintln(w, "# TYPE x counter")
			return
		}
		fmt.Fprintf(w, `{"trace_id":"%016x","tenant":"t00","messages":2,"delivered":2,"cycles":%d}`+"\n", trace.Add(1), cycles)
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestRunStepOpenLoop drives a fake server over two connections and checks
// that every due request is sent, answered, checked, and timed from its
// due time, while a scraper pulls on its own connection.
func TestRunStepOpenLoop(t *testing.T) {
	var scrapes atomic.Int64
	addr := fakeServe(t, 1, &scrapes)
	pool := []request{{
		raw:  postRequest([]byte(`{"tenant":"t00","messages":[{"src":0,"dst":1},{"src":1,"dst":0}]}`)),
		want: expect{tenant: "t00", msgs: 2, stats: fattree.Stats{Cycles: 1}},
	}}
	sc := startScraper(addr, 10*time.Millisecond)
	res := runStep(addr, 2, pool, stepConfig{rate: 2000, dur: 100 * time.Millisecond})
	pulls := sc.finish()
	if len(res.samples) != 200 || res.failed() != 0 {
		t.Fatalf("%d samples, %d failed (%v), want 200 answered", len(res.samples), res.failed(), res.errs)
	}
	seen := map[uint64]bool{}
	for i, s := range res.samples {
		if s.due != int64(i)*500_000 || s.sent < s.due || s.done < s.sent || seen[s.trace] {
			t.Fatalf("sample %d = %+v: want due %d <= sent <= done and a fresh trace ID", i, s, int64(i)*500_000)
		}
		seen[s.trace] = true
	}
	if len(pulls) < 3 || int64(len(pulls)) != scrapes.Load() {
		t.Errorf("scraper made %d pulls, server saw %d; want at least 3 and equal", len(pulls), scrapes.Load())
	}
	for _, p := range pulls {
		if p.err != "" {
			t.Errorf("scrape error %q", p.err)
		}
	}
}

// TestRunStepCountsWrongAnswers checks that responses disagreeing with the
// replay are counted as failures and kept out of the latencies.
func TestRunStepCountsWrongAnswers(t *testing.T) {
	var scrapes atomic.Int64
	addr := fakeServe(t, 2, &scrapes)
	pool := []request{{
		raw:  postRequest([]byte(`{}`)),
		want: expect{tenant: "t00", msgs: 2, stats: fattree.Stats{Cycles: 1}},
	}}
	res := runStep(addr, 2, pool, stepConfig{rate: 1000, dur: 20 * time.Millisecond})
	if res.failed() != 20 || len(res.latenciesMS()) != 0 || len(res.errs) == 0 {
		t.Fatalf("failed %d of %d, %d latencies, errs %v: want every request failed", res.failed(), len(res.samples), len(res.latenciesMS()), res.errs)
	}
}
