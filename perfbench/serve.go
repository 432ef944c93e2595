package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"gpssn"
	"gpssn/internal/serve"
)

// serve-zipf settings: the gpssn-serve defaults.
const (
	serveCacheSize      = 4096
	serveGatherWindow   = time.Millisecond
	serveDefaultTO      = 5 * time.Second
	serveMaxTO          = 30 * time.Second
	serveClients        = 2
	serveRequestsPerSec = 500 // upper bound on the request rate, to size the sequence
	// serveWarmup requests run unmeasured first, so the measured phase
	// sees a warm answer cache: without them about 60% of a run's requests
	// hit, and the median sat near the edge between hits and misses.
	serveWarmup = 500
)

// httpStack is an in-process serve.Server on a loopback listener.
type httpStack struct {
	server *serve.Server
	http   *http.Server
	url    string
	done   chan struct{}
}

func startHTTP(db *gpssn.DB) (*httpStack, error) {
	s := serve.New(db, serve.Config{
		GatherWindow:   serveGatherWindow,
		DefaultTimeout: serveDefaultTO,
		MaxTimeout:     serveMaxTO,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	h := &httpStack{server: s, http: &http.Server{Handler: s.Handler()},
		url: "http://" + l.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		h.http.Serve(l)
	}()
	return h, nil
}

// stop drains the server and waits for its serving goroutine to exit.
func (h *httpStack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	h.server.Drain(ctx)
	h.http.Shutdown(ctx)
	<-h.done
}

// Wire shapes of the serve API (docs/SERVING.md).
type wireAnswer struct {
	Users       []int   `json:"users"`
	POIs        []int   `json:"pois"`
	Anchor      int     `json:"anchor"`
	MaxDistance float64 `json:"max_distance"`
	Truncated   bool    `json:"truncated"`
}

type wireStats struct {
	CPUMicros        int64 `json:"cpu_us"`
	PageReads        int64 `json:"page_reads"`
	CandidateUsers   int   `json:"candidate_users"`
	CandidateAnchors int   `json:"candidate_anchors"`
	CacheHit         bool  `json:"cache_hit"`
}

type wireResponse struct {
	Found   bool         `json:"found"`
	Answer  wireAnswer   `json:"answer"`
	Answers []wireAnswer `json:"answers"`
	Stats   *wireStats   `json:"stats"`
	Code    string       `json:"code"`
	Error   string       `json:"error"`
}

type wireRequest struct {
	User      int     `json:"user"`
	GroupSize int     `json:"group_size"`
	Gamma     float64 `json:"gamma"`
	Theta     float64 `json:"theta"`
	Radius    float64 `json:"radius"`
	K         int     `json:"k,omitempty"`
}

func (w wireAnswer) answer() gpssn.Answer {
	return gpssn.Answer{Users: w.Users, POIs: w.POIs, Anchor: w.Anchor, MaxDistance: w.MaxDistance, Truncated: w.Truncated}
}

// post sends one request over HTTP and decodes the answer. A 404 no_answer
// is the verified not-found outcome; any other non-200 is a failure.
func post(c *http.Client, url string, r request) outcome {
	body, _ := json.Marshal(wireRequest{User: r.User, GroupSize: r.Q.GroupSize, Gamma: r.Q.Gamma,
		Theta: r.Q.Theta, Radius: r.Q.Radius, K: r.K})
	path := "/v1/query"
	if r.K > 0 {
		path = "/v1/topk"
	}
	t0 := time.Now()
	resp, err := c.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{latency: time.Since(t0), err: err}
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return outcome{latency: lat, err: err}
	}
	var wr wireResponse
	if err := json.Unmarshal(raw, &wr); err != nil {
		return outcome{latency: lat, err: fmt.Errorf("decoding %s response: %w", path, err)}
	}
	oc := outcome{latency: lat, answers: answerSet{}}
	switch {
	case resp.StatusCode == http.StatusNotFound && wr.Code == "no_answer":
	case resp.StatusCode != http.StatusOK:
		oc.err = fmt.Errorf("%s: HTTP %d %s: %s", path, resp.StatusCode, wr.Code, wr.Error)
	case r.K > 0:
		for _, a := range wr.Answers {
			oc.answers = append(oc.answers, a.answer())
		}
	default:
		oc.answers = answerSet{wr.Answer.answer()}
	}
	if wr.Stats != nil {
		oc.stats = &gpssn.Stats{
			CPUTime:          time.Duration(wr.Stats.CPUMicros) * time.Microsecond,
			PageReads:        wr.Stats.PageReads,
			CandidateUsers:   wr.Stats.CandidateUsers,
			CandidateAnchors: wr.Stats.CandidateAnchors,
			CacheHit:         wr.Stats.CacheHit,
		}
	}
	return oc
}

// statsz is the part of GET /statsz the traced run reads.
type statsz struct {
	Requests      int64 `json:"requests_total"`
	Coalesced     int64 `json:"coalesced_total"`
	Shed          int64 `json:"shed_total"`
	GatherBatches int64 `json:"gather_batches_total"`
	GatherBatched int64 `json:"gather_batched_requests_total"`
}

func getStatsz(tr *tracer, c *http.Client, url string) (statsz, error) {
	var s statsz
	defer tr.record(-5, "serve.statsz", "", time.Now())
	resp, err := c.Get(url + "/statsz")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// runServeZipf is serve-zipf: uni-cold's network behind an in-process
// serve.Server with the gpssn-serve defaults, two closed-loop HTTP
// connections, Zipf-popular issuers.
func runServeZipf(o runOptions) (*report, error) {
	rep := newReport(o)
	tr := newTracer(o.trace)
	net, err := generateTraced(rep, tr, netUNI)
	if err != nil {
		return nil, err
	}
	cfg := gpssn.DefaultConfig()
	cfg.CacheSize = serveCacheSize
	rep.Config = fmt.Sprintf("hl oracle, memo on, answer cache %d entries, gather window %v, default timeout %v; %d closed-loop HTTP connections over loopback; issuers Zipf(s=%.1f) over a hot set of %d; τ=5 γ=0.5 θ=0.5 r∈{1,2,3}; ~1 in 4 requests /v1/topk k=3",
		serveCacheSize, serveGatherWindow, serveDefaultTO, serveClients, zipfS, hotSetSize)
	st, opens, err := timedSetup(rep, tr, net, func(n *gpssn.Network, i int) (*stack, time.Duration, error) {
		db, open, err := openTimed(tr, n, cfg, int64(-20-i))
		if err != nil {
			return nil, 0, err
		}
		h, err := startHTTP(db)
		if err != nil {
			db.Close()
			return nil, 0, err
		}
		return &stack{db: db, srv: h, close: func() { h.stop(); db.Close() }}, open, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	db, url := st.db, st.srv.url

	var oc *oracleCounters
	if o.trace {
		if oc, err = installRecorder(db); err != nil {
			return nil, err
		}
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()

	count := serveWarmup + serveRequestsPerSec*int(4*o.seconds/time.Second)
	reqs := zipfRequests(net.first, o.seed, count)
	spanBase := 0 // request index of reqs[0], for span ids
	exec := func(i int, r request) outcome {
		t0 := time.Now()
		oc := post(client, url, r)
		tr.record(int64(spanBase+i), "serve.http "+r.opName(), "", t0)
		return oc
	}
	warm := closedLoop(serveClients, reqs[:serveWarmup], 4*o.seconds, serveWarmup, exec)
	for _, oc := range warm.outcomes {
		rep.sent("warmup", oc.err == nil, fmt.Sprint(oc.err))
	}
	reqs, spanBase = reqs[len(warm.outcomes):], len(warm.outcomes)
	var szBefore statsz
	if o.trace {
		if szBefore, err = getStatsz(tr, client, url); err != nil {
			return nil, fmt.Errorf("reading /statsz: %w", err)
		}
	}
	before := observe(db, oc)
	lr := closedLoop(serveClients, reqs, o.seconds, minQueries, exec)
	after := observe(db, oc)
	scoreLoop(rep, lr)
	if len(lr.outcomes) == len(reqs) {
		rep.Notes = append(rep.Notes, "request sequence exhausted before the phase ended")
	}
	rep.e2e("heap_live_mb", heapLiveMB())
	if o.trace {
		traceLayers(rep, lr, before, after, false)
		rep.layer("gpssn.facade_self_us", 0) // not observable from outside the server
		traceSetup(rep, net, opens)
		var over []float64
		for _, oc := range lr.outcomes {
			if oc.err == nil && oc.stats != nil {
				over = append(over, ms(oc.latency-oc.stats.CPUTime))
			}
		}
		rep.Samples["serve_overhead"] = len(over)
		rep.layer("serve.overhead_p50_ms", percentile(over, 0.50))
		rep.layer("serve.overhead_p95_ms", percentile(over, 0.95))
		szAfter, err := getStatsz(tr, client, url)
		if err != nil {
			return nil, fmt.Errorf("reading /statsz: %w", err)
		}
		reqsDelta := float64(szAfter.Requests - szBefore.Requests)
		rep.layer("serve.gather_batch_mean", frac(float64(szAfter.GatherBatched-szBefore.GatherBatched), float64(szAfter.GatherBatches-szBefore.GatherBatches)))
		rep.layer("serve.coalesced_frac", frac(float64(szAfter.Coalesced-szBefore.Coalesced), reqsDelta))
		rep.layer("serve.shed_frac", frac(float64(szAfter.Shed-szBefore.Shed), reqsDelta))
	}

	twin, err := openTwin(tr, net)
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	rep.AnswerDigest = checkAgainstTwin(rep, tr, twin, reqs, lr.outcomes)
	return rep, tr.write(o)
}
