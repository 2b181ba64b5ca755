package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fattree/internal/obsv"
)

func TestParseConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"no tenants", []string{"-requests", "10"}},
		{"no stop condition", []string{"-tenants", "alpha"}},
		{"empty tenant", []string{"-tenants", "alpha,,beta", "-requests", "1"}},
		{"empty workload", []string{"-tenants", "alpha", "-workloads", "perm,", "-requests", "1"}},
		{"negative rate", []string{"-tenants", "alpha", "-requests", "1", "-rate", "-5"}},
		{"bad concurrency", []string{"-tenants", "alpha", "-requests", "1", "-concurrency", "0"}},
		{"bad batch", []string{"-tenants", "alpha", "-requests", "1", "-batch", "0"}},
		{"negative k", []string{"-tenants", "alpha", "-requests", "1", "-k", "-1"}},
		{"negative requests", []string{"-tenants", "alpha", "-requests", "-1"}},
		{"bad timeout", []string{"-tenants", "alpha", "-requests", "1", "-timeout", "0"}},
		{"unknown flag", []string{"-nope"}},
		{"positional args", []string{"-tenants", "alpha", "-requests", "1", "extra"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseConfig(tc.args); err == nil {
				t.Fatalf("parseConfig(%v) accepted invalid flags", tc.args)
			}
		})
	}

	cfg, err := parseConfig([]string{"-tenants", "a,b", "-requests", "100", "-addr", "127.0.0.1:9999"})
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if cfg.addr != "http://127.0.0.1:9999" {
		t.Fatalf("addr not normalized: %q", cfg.addr)
	}
	if len(cfg.tenants) != 2 || cfg.tenants[1] != "b" {
		t.Fatalf("tenants parsed wrong: %v", cfg.tenants)
	}
}

func TestClaimBudget(t *testing.T) {
	l := &loader{cfg: config{requests: 10, batch: 4}}
	var total int64
	for {
		first, n := l.claim(4)
		if n == 0 {
			break
		}
		if first+n > 10 {
			t.Fatalf("claim overran the budget: first=%d n=%d", first, n)
		}
		total += n
	}
	if total != 10 {
		t.Fatalf("claimed %d requests, want exactly 10", total)
	}
}

func TestCheckConservation(t *testing.T) {
	scrape := `# TYPE fattree_messages_offered_total counter
fattree_messages_offered_total{tenant="alpha"} 100
fattree_messages_offered_total{tenant="beta"} 7
# TYPE fattree_messages_delivered_total counter
fattree_messages_delivered_total{tenant="alpha"} 90
fattree_messages_delivered_total{tenant="beta"} 7
# TYPE fattree_messages_dropped_total counter
fattree_messages_dropped_total{tenant="alpha"} 8
fattree_messages_dropped_total{tenant="beta"} 0
# TYPE fattree_messages_deferred_total counter
fattree_messages_deferred_total{tenant="alpha"} 2
fattree_messages_deferred_total{tenant="beta"} 0
`
	samples, err := obsv.ParseExposition([]byte(scrape))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkConservation(samples, []string{"alpha", "beta"}); err != nil {
		t.Fatalf("conserved scrape rejected: %v", err)
	}
	if err := checkConservation(samples, []string{"alpha", "gamma"}); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing tenant not detected: %v", err)
	}

	broken := strings.Replace(scrape, `fattree_messages_delivered_total{tenant="alpha"} 90`,
		`fattree_messages_delivered_total{tenant="alpha"} 89`, 1)
	samples, err = obsv.ParseExposition([]byte(broken))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkConservation(samples, []string{"alpha"}); err == nil ||
		!strings.Contains(err.Error(), "conservation broken") {
		t.Fatalf("broken conservation not detected: %v", err)
	}
}

func TestQuantileString(t *testing.T) {
	h := obsv.NewLog2Hist(25)
	if got := quantileString(&h, 0.99); got != "n/a" {
		t.Fatalf("empty hist quantile = %q, want n/a", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(500) // all in the 512µs bucket
	}
	if got := quantileString(&h, 0.99); got != "512µs" {
		t.Fatalf("quantile = %q, want 512µs", got)
	}
}

// TestDurationLetsInFlightRequestsFinish runs ftload against a server whose
// handler is slower than the gap between the last request and the -duration
// deadline. The deadline must stop pacing without cancelling the request in
// flight, so every sent request completes and none counts as failed.
func TestDurationLetsInFlightRequestsFinish(t *testing.T) {
	var served atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/route", func(w http.ResponseWriter, r *http.Request) {
		discard(r.Body)
		time.Sleep(150 * time.Millisecond)
		served.Add(1)
		io.WriteString(w, `{"tenant":"alpha","delivered":1}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `# TYPE fattree_messages_offered_total counter
fattree_messages_offered_total{tenant="alpha"} 1
# TYPE fattree_messages_delivered_total counter
fattree_messages_delivered_total{tenant="alpha"} 1
`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cfg, err := parseConfig([]string{"-addr", srv.URL, "-tenants", "alpha",
		"-duration", "250ms", "-concurrency", "2", "-scrape", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cfg); err != nil {
		t.Fatalf("run with -duration: %v", err)
	}
	// A worker leaves its loop only once the deadline has passed, so each
	// one's last request was sent before the deadline and answered after it.
	if served.Load() < 2 {
		t.Fatalf("server answered %d requests, want at least one per worker", served.Load())
	}
}
