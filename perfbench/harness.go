package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpssn"
)

// Run-shape constants shared by the workloads.
const (
	// setupRepeats is how many times a run sets the DB up; setup_s is the
	// median. The last DB built is the one measured.
	setupRepeats = 3
	// minQueries is the fewest queries a measured phase may end with, so
	// that query_p95_ms has at least ten samples beyond it.
	minQueries = 200
)

// answerSet is the outcome of one request: the answers in engine order
// (one for Query, up to k for QueryTopK), empty when nothing is feasible.
type answerSet []gpssn.Answer

// canonical renders an answer set exactly, distances by their bits, so two
// sets compare equal only when they are bit-identical.
func (a answerSet) canonical() string {
	var b strings.Builder
	for _, x := range a {
		fmt.Fprintf(&b, "u%v p%v a%d d%x t%v;", x.Users, x.POIs, x.Anchor, math.Float64bits(x.MaxDistance), x.Truncated)
	}
	if len(a) == 0 {
		b.WriteString("none")
	}
	return b.String()
}

// ask sends one request to a DB through the facade.
func ask(db *gpssn.DB, r request) (answerSet, *gpssn.Stats, error) {
	if r.K > 0 {
		as, st, err := db.QueryTopK(r.User, r.Q, r.K)
		return answerSet(as), st, err
	}
	a, st, err := db.Query(r.User, r.Q)
	if errors.Is(err, gpssn.ErrNoAnswer) {
		return answerSet{}, st, nil
	}
	if err != nil {
		return nil, st, err
	}
	return answerSet{*a}, st, nil
}

// opName names the facade call a request makes, for spans.
func (r request) opName() string {
	if r.K > 0 {
		return "gpssn.QueryTopK"
	}
	return "gpssn.Query"
}

// outcome is what the benchmark observed for one request of the measured
// phase. On serve-zipf, stats holds what the response's stats field
// carries.
type outcome struct {
	done    bool
	latency time.Duration
	answers answerSet
	err     error
	stats   *gpssn.Stats
}

// loopResult is a measured phase of a closed loop.
type loopResult struct {
	outcomes []outcome // one per request sent, indexed like the sequence
	elapsed  time.Duration
}

// closedLoop runs clients closed-loop clients over the request sequence:
// each sends its next request when the previous one returns. It stops
// once d has elapsed and at least minCount requests completed, or at the
// hard limit of 4·d, or when the sequence runs out.
func closedLoop(clients int, reqs []request, d time.Duration, minCount int, exec func(i int, r request) outcome) loopResult {
	out := make([]outcome, len(reqs))
	var next, completed atomic.Int64
	start := time.Now()
	hardStop := start.Add(4 * d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(hardStop) || (now.Sub(start) >= d && completed.Load() >= int64(minCount)) {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = exec(i, reqs[i])
				out[i].done = true
				completed.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sent := min(int(next.Load()), len(reqs))
	return loopResult{outcomes: out[:sent], elapsed: elapsed}
}

// scoreLoop counts a measured phase into the report and sets the query
// latency and throughput metrics. A request succeeds when it returned an
// answer or a verified no-answer.
func scoreLoop(rep *report, lr loopResult) {
	var lat []float64
	ok, hits := 0, 0
	for _, oc := range lr.outcomes {
		if oc.err != nil {
			rep.sent("measure", false, oc.err.Error())
			continue
		}
		rep.sent("measure", true, "")
		ok++
		lat = append(lat, ms(oc.latency))
		if oc.stats != nil && oc.stats.CacheHit {
			hits++
		}
	}
	rep.CacheHitFrac = frac(float64(hits), float64(ok))
	rep.MeasuredSeconds = lr.elapsed.Seconds()
	rep.Samples["query_latency"] = len(lat)
	rep.e2e("query_p50_ms", percentile(lat, 0.50))
	rep.e2e("query_p95_ms", percentile(lat, 0.95))
	rep.e2e("throughput_qps", float64(ok)/lr.elapsed.Seconds())
	if len(lat) < minQueries {
		rep.Notes = append(rep.Notes, fmt.Sprintf("measured phase ended with %d queries, below the %d minimum", len(lat), minQueries))
	}
}

// checkSampleSize and checkStride pick the fixed sample of requests the
// answer checker re-asks: indexes 0, 12, 24, ... 180, all below
// minQueries, so every run executes each of them.
const (
	checkSampleSize = 16
	checkStride     = 12
)

func checkSample() []int {
	idx := make([]int, checkSampleSize)
	for i := range idx {
		idx[i] = i * checkStride
	}
	return idx
}

// referenceConfig is the answer checker's twin: sequential refinement, no
// answer cache, no shared-work memo — the plainest path the engine has.
func referenceConfig() gpssn.Config {
	c := gpssn.DefaultConfig()
	c.Parallelism = 1
	c.CacheSize = 0
	c.DisableSharedWork = true
	return c
}

// openTwin opens the reference twin: a DB with referenceConfig on an
// identical copy of the network.
func openTwin(tr *tracer, net *network) (*gpssn.DB, error) {
	copyNet, err := net.fresh()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	twin, err := gpssn.Open(copyNet, referenceConfig())
	tr.record(-2, "gpssn.Open", "check", t0)
	if err != nil {
		return nil, fmt.Errorf("opening the reference twin: %w", err)
	}
	return twin, nil
}

// checkAgainstTwin re-asks the sampled requests of the reference twin and
// counts every answer that is not bit-identical to the one the measured
// phase saw. It returns the digest of the sampled answers.
func checkAgainstTwin(rep *report, tr *tracer, twin *gpssn.DB, reqs []request, seen []outcome) digest {
	sample := checkSample()
	got := make([]answerSet, len(sample))
	errs := make([]error, len(sample))
	var wg sync.WaitGroup
	var next atomic.Int64
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(sample) {
					return
				}
				i := sample[j]
				t := time.Now()
				got[j], _, errs[j] = ask(twin, reqs[i])
				tr.record(int64(i), reqs[i].opName(), "check", t)
			}
		}()
	}
	wg.Wait()
	return compareSample(rep, "check", sample, seen, got, errs)
}

// compareSample counts each sampled answer into phase: a failure when the
// measured phase did not run it, when either side erred, or when the two
// answers are not bit-identical. It returns the digest of the observed
// answers.
func compareSample(rep *report, phase string, sample []int, seen []outcome, want []answerSet, errs []error) digest {
	h, obj := fnv.New64a(), fnv.New64a()
	for j, i := range sample {
		switch {
		case i >= len(seen) || !seen[i].done:
			rep.sent(phase, false, fmt.Sprintf("request %d was not executed", i))
		case seen[i].err != nil:
			rep.sent(phase, false, fmt.Sprintf("request %d: %v", i, seen[i].err))
		case errs[j] != nil:
			rep.sent(phase, false, fmt.Sprintf("request %d on the reference: %v", i, errs[j]))
		case seen[i].answers.canonical() != want[j].canonical():
			why := fmt.Sprintf("request %d: got %s want %s", i, seen[i].answers.canonical(), want[j].canonical())
			rep.divergent(phase, divergence(seen[i].answers, want[j]), why)
		default:
			rep.sent(phase, true, "")
		}
		if i < len(seen) {
			fmt.Fprintf(h, "%d=%s\n", i, seen[i].answers.canonical())
			fmt.Fprintf(obj, "%d=%d:", i, len(seen[i].answers))
			for _, a := range seen[i].answers {
				fmt.Fprintf(obj, "%x,", math.Float64bits(a.MaxDistance))
			}
		}
	}
	return digest{Answers: fmt.Sprintf("%016x", h.Sum64()), Objective: fmt.Sprintf("%016x", obj.Sum64())}
}

// digest fingerprints a checked answer sample: Answers bit for bit,
// Objective by the answers' distances only.
type digest struct {
	Answers   string `json:"answers"`
	Objective string `json:"objective"`
}

// maxRoundingULPs is how far apart two distances may be, in units in the
// last place, and still count as the same value computed in a different
// order (a rounding divergence rather than a wrong answer).
const maxRoundingULPs = 4

// divergence classifies two answer sets that are not bit-identical:
// divTie when they have the same number of answers with bit-identical
// distances in order (only the choice among equal-cost candidates
// differs), divRounding when every distance pair is within
// maxRoundingULPs, and divWrong otherwise.
func divergence(a, b answerSet) divKind {
	if len(a) != len(b) {
		return divWrong
	}
	kind := divTie
	for i := range a {
		x, y := math.Float64bits(a[i].MaxDistance), math.Float64bits(b[i].MaxDistance)
		switch {
		case x == y:
		case ulpsApart(x, y) <= maxRoundingULPs:
			kind = divRounding
		default:
			return divWrong
		}
	}
	return kind
}

type divKind int

const (
	divTie divKind = iota
	divRounding
	divWrong
)

// ulpsApart returns how many representable doubles lie between two
// non-negative distances given by their bits.
func ulpsApart(x, y uint64) uint64 {
	if x > y {
		return x - y
	}
	return y - x
}

// openLoopWriter sends the updates at a fixed rate, each on its own
// schedule slot regardless of how long earlier ones took, and times each
// from its due time to its return. It sleeps until shortly before a slot
// and spins the rest, so the lateness it reports is the program's, not the
// timer's.
func openLoopWriter(db *gpssn.DB, ups []update, rate float64, tr *tracer, idBase int64) (lat, lateness []float64, errs []error) {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	const spin = time.Millisecond
	lat = make([]float64, len(ups))
	lateness = make([]float64, len(ups))
	errs = make([]error, len(ups))
	for i, u := range ups {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due) - spin; wait > 0 {
			time.Sleep(wait)
		}
		for time.Now().Before(due) {
		}
		sent := time.Now()
		errs[i] = u.apply(db)
		tr.record(idBase+int64(i), "gpssn."+u.Kind.String(), "", sent)
		lat[i] = us(time.Since(due))
		lateness[i] = us(sent.Sub(due))
	}
	return lat, lateness, errs
}

// scoreUpdates counts the updates into phase and sets the update metrics.
func scoreUpdates(rep *report, phase string, ups []update, lat, lateness []float64, errs []error) {
	var okLat []float64
	byKind := map[string][]float64{}
	for i, err := range errs {
		if err != nil {
			rep.sent(phase, false, err.Error())
			continue
		}
		rep.sent(phase, true, "")
		okLat = append(okLat, lat[i])
		k := ups[i].Kind.String()
		byKind[k] = append(byKind[k], lat[i])
	}
	rep.UpdateP50ByKindUs = map[string]float64{}
	for k, v := range byKind {
		rep.UpdateP50ByKindUs[k] = percentile(v, 0.50)
	}
	rep.Samples["update_latency"] = len(okLat)
	top := append([]float64(nil), okLat...)
	sort.Sort(sort.Reverse(sort.Float64Slice(top)))
	if len(top) > 12 {
		top = top[:12]
	}
	rep.UpdateSlowestUs = top
	rep.layer("update_p50_us", percentile(okLat, 0.50))
	rep.layer("update_p99_us", percentile(okLat, 0.99))
	rep.WriterLatenessUs = map[string]float64{
		"p50": percentile(lateness, 0.50),
		"p99": percentile(lateness, 0.99),
		"max": percentile(lateness, 1),
	}
}
