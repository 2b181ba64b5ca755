package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"fattree"
)

// replayOne runs one message set the way the benchmark's replay does and
// returns the answer ftserve must give for it.
func replayOne(t *testing.T) (expect, fattree.MessageSet) {
	t.Helper()
	tree := fattree.NewUniversal(serveTreeN, serveTreeW)
	eng := fattree.NewEngineWithOptions(tree, fattree.SwitchIdeal, 1, fattree.Options{Workers: 1})
	ms := fattree.Random(serveTreeN, 4*serveTreeN, 7)
	st := eng.RunServe(ms)
	if st.Drops == 0 || st.Cycles < 2 {
		t.Fatalf("test set too easy to tell answers apart: %+v", st)
	}
	return expect{tenant: "t01", msgs: len(ms), stats: st}, ms
}

func TestCheckResponseRejectsDoctored(t *testing.T) {
	want, _ := replayOne(t)
	body := func(edit func(*ftserveResp)) []byte {
		r := ftserveResp{
			TraceID: "00000000000000a1", Tenant: want.tenant, Messages: want.msgs, Delivered: want.msgs,
			Cycles: want.stats.Cycles, Drops: want.stats.Drops, Deferrals: want.stats.Deferrals,
		}
		edit(&r)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := checkResponse(200, body(func(*ftserveResp) {}), want); err != nil {
		t.Fatalf("faithful response rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		status int
		body   []byte
		errHas string
	}{
		{"one cycle more", 200, body(func(r *ftserveResp) { r.Cycles++ }), "cycles"},
		{"one drop fewer", 200, body(func(r *ftserveResp) { r.Drops-- }), "cycles/drops/deferrals"},
		{"deferrals lost", 200, body(func(r *ftserveResp) { r.Deferrals = 0 }), "cycles/drops/deferrals"},
		{"short delivery", 200, body(func(r *ftserveResp) { r.Delivered-- }), "delivered"},
		{"wrong tenant", 200, body(func(r *ftserveResp) { r.Tenant = "t02" }), "tenant"},
		{"no trace id", 200, body(func(r *ftserveResp) { r.TraceID = "" }), "trace_id"},
		{"stalled", 422, body(func(r *ftserveResp) { r.Error = "delivery stalled" }), "status 422"},
		{"not JSON", 200, []byte("<html>"), "undecodable"},
	} {
		_, err := checkResponse(tc.status, tc.body, want)
		if err == nil || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.errHas)
		}
	}
}

// ftserveResp mirrors ftserve's response encoding, zero fields omitted.
type ftserveResp struct {
	TraceID   string `json:"trace_id,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	Messages  int    `json:"messages,omitempty"`
	Delivered int    `json:"delivered,omitempty"`
	Cycles    int    `json:"cycles,omitempty"`
	Drops     int    `json:"drops,omitempty"`
	Deferrals int    `json:"deferrals,omitempty"`
	Error     string `json:"error,omitempty"`
}

// exposition renders what ftserve's /metrics serves for the given tenants
// after each has served one request.
func exposition(t *testing.T, tenants []string) []byte {
	t.Helper()
	tree := fattree.NewUniversal(serveTreeN, serveTreeW)
	var reds []fattree.LabeledRED
	var snaps []fattree.LabeledSnapshot
	for i, name := range tenants {
		obs := fattree.NewObserver(tree)
		eng := fattree.NewEngineWithOptions(tree, fattree.SwitchIdeal, int64(i), fattree.Options{Workers: 1, Observer: obs})
		st := eng.RunServe(fattree.Random(serveTreeN, 512, int64(i)))
		red := fattree.NewRED()
		red.ObserveRequest(int64(st.Cycles), 100, uint64(i+1), false)
		labels := []fattree.PromLabel{{Name: "tenant", Value: name}}
		reds = append(reds, fattree.LabeledRED{Labels: labels, Snap: red.Snapshot()})
		snaps = append(snaps, fattree.LabeledSnapshot{Labels: labels, Snap: obs.Snapshot()})
	}
	var b bytes.Buffer
	if err := fattree.WriteREDPrometheus(&b, reds...); err != nil {
		t.Fatal(err)
	}
	if err := fattree.WritePrometheus(&b, snaps...); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestCheckScrape(t *testing.T) {
	tenants := []string{"t00", "t01"}
	text := exposition(t, tenants)
	tot, err := checkScrape(text, tenants)
	if err != nil {
		t.Fatalf("faithful scrape rejected: %v", err)
	}
	if tot.offered <= tot.delivered || tot.delivered != 2*512 {
		t.Errorf("totals %+v: want 1024 delivered out of more offered", tot)
	}
	if _, err := checkScrape(text, []string{"t00", "t01", "t02"}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("absent tenant: err = %v", err)
	}
	// Doctor one tenant's delivered counter: the exposition still parses,
	// but the conservation law breaks.
	lines := strings.Split(string(text), "\n")
	doctored := false
	for i, l := range lines {
		if strings.HasPrefix(l, `fattree_messages_delivered_total{tenant="t01"}`) {
			lines[i] = `fattree_messages_delivered_total{tenant="t01"} 1`
			doctored = true
		}
	}
	if !doctored {
		t.Fatal("no delivered counter for t01 in the exposition")
	}
	if _, err := checkScrape([]byte(strings.Join(lines, "\n")), tenants); err == nil || !strings.Contains(err.Error(), "offered") {
		t.Errorf("conservation broken: err = %v", err)
	}
	if _, err := checkScrape(append([]byte("not a metric line\n"), text...), tenants); err == nil {
		t.Error("malformed exposition accepted")
	}
}

// TestStageMetrics checks the per-request stage arithmetic on two requests
// with hand-made spans: stage times are the span durations, the residual
// is the client round trip minus what the spans cover, and the shares are
// of the summed round trips.
func TestStageMetrics(t *testing.T) {
	r := &serveRun{rep: newReport(io.Discard)}
	spans := []spanLine{
		{Trace: "0000000000000001", Kind: "handler", StartNS: 0, DurNS: 10_000},
		{Trace: "0000000000000001", Kind: "queue", StartNS: 10_000, DurNS: 5_000},
		{Trace: "0000000000000001", Kind: "engine", StartNS: 15_000, DurNS: 20_000, Cycles: 2},
		{Trace: "0000000000000001", Kind: "respond", StartNS: 40_000, DurNS: 5_000},
		{Trace: "0000000000000002", Kind: "handler", StartNS: 90_000, DurNS: 30_000},
		{Trace: "0000000000000002", Kind: "queue", StartNS: 120_000, DurNS: 15_000},
		{Trace: "0000000000000002", Kind: "engine", StartNS: 135_000, DurNS: 60_000, Cycles: 4},
		{Trace: "0000000000000002", Kind: "respond", StartNS: 200_000, DurNS: 15_000},
	}
	hi := &stepResult{samples: []sample{
		{sent: 0, done: 50_000, trace: 1, ok: true},        // spans cover 40µs: residual 10µs
		{sent: 100_000, done: 250_000, trace: 2, ok: true}, // spans cover 120µs: residual 30µs
	}}
	if err := r.stageMetrics(spans, hi); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"ftserve.handler_us.p50": 10, "ftserve.handler_us.p90": 30,
		"ftserve.queue_us.p50": 5, "sim.serve_us.p90": 60,
		"sim.serve_us_per_cycle": 80.0 / 6, "sim.cycles_per_req": 3,
		"http.residual_us.p50": 10, "http.residual_us.p90": 30,
		"share.handler_pct": 20, "share.queue_pct": 10, "share.engine_pct": 40,
		"share.respond_pct": 10, "share.residual_pct": 20,
	} {
		if got := r.rep.Layers[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if err := r.stageMetrics(spans[:7], hi); err == nil {
		t.Error("a request missing its respond span was accepted")
	}
}
