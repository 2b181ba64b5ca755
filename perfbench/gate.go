package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"fattree"
)

// This file is the correctness gate: every /v1/route response is compared
// with an in-process replay of the same message set, and every /metrics
// scrape must parse strictly and satisfy the per-tenant conservation law.

// routeResp is the part of a /v1/route response body the gate reads.
type routeResp struct {
	TraceID   string `json:"trace_id"`
	Tenant    string `json:"tenant"`
	Messages  int    `json:"messages"`
	Delivered int    `json:"delivered"`
	Cycles    int    `json:"cycles"`
	Drops     int    `json:"drops"`
	Deferrals int    `json:"deferrals"`
	Error     string `json:"error"`
}

// expect is what a request must be answered with: its tenant, its message
// count, and the Stats of an in-process Engine.RunServe replay.
type expect struct {
	tenant string
	msgs   int
	stats  fattree.Stats
}

// checkResponse decodes one response and checks it against want. It returns
// the decoded body, so the caller can read the trace ID, and an error
// describing the first mismatch.
func checkResponse(status int, body []byte, want expect) (routeResp, error) {
	var got routeResp
	if err := json.Unmarshal(body, &got); err != nil {
		return got, fmt.Errorf("status %d, undecodable body %q: %v", status, body, err)
	}
	switch {
	case status != http.StatusOK:
		return got, fmt.Errorf("status %d: %s", status, got.Error)
	case got.TraceID == "":
		return got, fmt.Errorf("response without trace_id")
	case got.Tenant != want.tenant:
		return got, fmt.Errorf("tenant %q, want %q", got.Tenant, want.tenant)
	case got.Messages != want.msgs || got.Delivered != want.msgs:
		return got, fmt.Errorf("messages %d delivered %d, want %d delivered", got.Messages, got.Delivered, want.msgs)
	case got.Cycles != want.stats.Cycles || got.Drops != want.stats.Drops || got.Deferrals != want.stats.Deferrals:
		return got, fmt.Errorf("cycles/drops/deferrals %d/%d/%d, replay %d/%d/%d",
			got.Cycles, got.Drops, got.Deferrals, want.stats.Cycles, want.stats.Drops, want.stats.Deferrals)
	}
	return got, nil
}

// scrapeTotals are the per-scrape figures the benchmark reports, summed (or
// maximized) over tenants.
type scrapeTotals struct {
	offered, delivered float64
	errors, queuePeak  float64
}

// checkScrape parses one /metrics body with the repository's strict parser,
// checks offered == delivered + dropped + deferred for every tenant, and
// returns the tenant totals.
func checkScrape(text []byte, tenants []string) (scrapeTotals, error) {
	var tot scrapeTotals
	samples, err := fattree.ParsePromExposition(text)
	if err != nil {
		return tot, fmt.Errorf("invalid exposition: %w", err)
	}
	type flow struct{ offered, delivered, dropped, deferred float64 }
	flows := make(map[string]*flow, len(tenants))
	for _, tn := range tenants {
		flows[tn] = nil
	}
	for _, s := range samples {
		tn := s.Label("tenant")
		f, ok := flows[tn]
		if !ok {
			continue
		}
		if f == nil {
			f = &flow{}
			flows[tn] = f
		}
		switch s.Name {
		case "fattree_messages_offered_total":
			f.offered = s.Value
		case "fattree_messages_delivered_total":
			f.delivered = s.Value
		case "fattree_messages_dropped_total":
			f.dropped = s.Value
		case "fattree_messages_deferred_total":
			f.deferred = s.Value
		case "fattree_request_errors_total":
			tot.errors += s.Value
		case "fattree_request_queue_depth_peak":
			tot.queuePeak = max(tot.queuePeak, s.Value)
		}
	}
	for _, tn := range tenants {
		f := flows[tn]
		if f == nil {
			return tot, fmt.Errorf("tenant %q missing from /metrics", tn)
		}
		if f.offered != f.delivered+f.dropped+f.deferred {
			return tot, fmt.Errorf("tenant %q: offered %v != delivered %v + dropped %v + deferred %v",
				tn, f.offered, f.delivered, f.dropped, f.deferred)
		}
		tot.offered += f.offered
		tot.delivered += f.delivered
	}
	return tot, nil
}
