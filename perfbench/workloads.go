package main

import (
	"fmt"
	"runtime"
	"time"

	"gpssn"
	"gpssn/internal/roadnet/hl"
)

// stack is a set-up system under test: the DB and, on serve-zipf, the HTTP
// server in front of it.
type stack struct {
	db    *gpssn.DB
	srv   *httpStack
	close func()
}

// timedSetup builds the workload's stack setupRepeats times, each on a
// fresh copy of the network, timing each build from Open until the first
// request can be sent. setup_s is the median; every stack but the last is
// closed again. build returns the stack and how long Open itself took.
func timedSetup(rep *report, tr *tracer, net *network, build func(n *gpssn.Network, i int) (*stack, time.Duration, error)) (*stack, []time.Duration, error) {
	var setups []float64
	var opens []time.Duration
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		n, err := net.fresh()
		if err != nil {
			return nil, nil, err
		}
		runtime.GC()
		t0 := time.Now()
		s, open, err := build(n, i)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.record(int64(-10-i), "setup", "", t0)
		opens = append(opens, open)
		st = s
	}
	rep.Samples["setup"] = len(setups)
	rep.e2e("setup_s", median(setups))
	return st, opens, nil
}

// openTimed opens a DB and reports how long Open took.
func openTimed(tr *tracer, n *gpssn.Network, cfg gpssn.Config, id int64) (*gpssn.DB, time.Duration, error) {
	t0 := time.Now()
	db, err := gpssn.Open(n, cfg)
	took := time.Since(t0)
	tr.record(id, "gpssn.Open", "setup", t0)
	if err != nil {
		return nil, 0, fmt.Errorf("opening the DB: %w", err)
	}
	return db, took, nil
}

// generateTraced generates the workload's network, spanning the call.
func generateTraced(rep *report, tr *tracer, kind netKind) (*network, error) {
	t0 := time.Now()
	net, err := generate(kind, datasetSeed)
	tr.record(-1, "gen.Generate", "", t0)
	if err != nil {
		return nil, err
	}
	rep.Dataset = net.info()
	return net, nil
}

func runUniCold(o runOptions) (*report, error) { return runCold(o, netUNI, 5) }

// runGowCold uses τ = 4: at τ = 5 one issuer of a sizing run took about
// 29 s and the median moved 12% between two runs (README.md).
func runGowCold(o runOptions) (*report, error) { return runCold(o, netGow, 4) }

// runCold is uni-cold and gow-cold: one closed-loop in-process client
// asking each issuer once, on the default configuration (hl oracle,
// shared-work memo on, answer cache off).
func runCold(o runOptions, kind netKind, tau int) (*report, error) {
	rep := newReport(o)
	tr := newTracer(o.trace)
	net, err := generateTraced(rep, tr, kind)
	if err != nil {
		return nil, err
	}
	cfg := gpssn.DefaultConfig()
	rep.Config = fmt.Sprintf("default Config (hl oracle, memo on, answer cache off, Parallelism=GOMAXPROCS); 1 closed-loop client; τ=%d γ=0.5 θ=0.5 r∈{1,2,3}; every 5th request QueryTopK k=3", tau)
	st, opens, err := timedSetup(rep, tr, net, func(n *gpssn.Network, i int) (*stack, time.Duration, error) {
		db, open, err := openTimed(tr, n, cfg, int64(-20-i))
		if err != nil {
			return nil, 0, err
		}
		return &stack{db: db, close: func() { db.Close() }}, open, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	db := st.db

	var oc *oracleCounters
	if o.trace {
		if oc, err = installRecorder(db); err != nil {
			return nil, err
		}
	}
	reqs := coldRequests(net.first, o.seed, tau)
	before := observe(db, oc)
	lr := closedLoop(1, reqs, o.seconds, minQueries, func(i int, r request) outcome {
		t0 := time.Now()
		as, stats, err := ask(db, r)
		lat := time.Since(t0)
		tr.record(int64(i), r.opName(), "", t0)
		return outcome{latency: lat, answers: as, err: err, stats: stats}
	})
	after := observe(db, oc)
	scoreLoop(rep, lr)
	rep.e2e("heap_live_mb", heapLiveMB())
	if o.trace {
		traceLayers(rep, lr, before, after, true)
		traceSetup(rep, net, opens)
	}

	twin, err := openTwin(tr, net)
	if err != nil {
		return nil, err
	}
	defer twin.Close()
	rep.AnswerDigest = checkAgainstTwin(rep, tr, twin, reqs, lr.outcomes)
	return rep, tr.write(o)
}

// installRecorder puts the recording decorator on the DB's road-distance
// seam. Call it after Open and before the first query.
func installRecorder(db *gpssn.DB) (*oracleCounters, error) {
	road := db.Engine().DS.Road
	oc := &oracleCounters{}
	wrapped, err := wrapOracle(road.Oracle(), oc)
	if err != nil {
		return nil, err
	}
	road.SetDistanceOracle(wrapped)
	return oc, nil
}

// observation is a snapshot of the counters the program exports, taken at
// the edges of a measured phase.
type observation struct {
	shared gpssn.SharedWorkStats
	mem    gpssn.MemoryStats
	oracle oracleTotals
}

func observe(db *gpssn.DB, oc *oracleCounters) observation {
	ob := observation{shared: db.SharedWorkStats(), mem: db.MemoryStats()}
	if oc != nil {
		ob.oracle = oc.snapshot()
	}
	return ob
}

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceLayers derives the per-query layer metrics of a measured phase from
// the outcomes' Stats and the counter snapshots around it. engineSelf is
// reported only for single-client phases, where oracle time can be
// attributed to the one query running.
func traceLayers(rep *report, lr loopResult, before, after observation, engineSelf bool) {
	var executed, answered, hits float64
	var engineMs, anchors, users, pairs, pages, snFrac, rnFrac, facadeUs float64
	var snN, rnN float64
	for _, oc := range lr.outcomes {
		if oc.err != nil {
			continue
		}
		answered++
		if oc.stats == nil {
			continue
		}
		st := oc.stats
		facadeUs += us(oc.latency - st.CPUTime)
		if st.CacheHit {
			hits++
			continue
		}
		executed++
		engineMs += ms(st.CPUTime)
		anchors += float64(st.CandidateAnchors)
		users += float64(st.CandidateUsers)
		pairs += float64(st.Raw.PairsEvaluated)
		pages += float64(st.PageReads)
		if st.Raw.SNUsersTotal > 0 {
			snFrac += float64(st.Raw.SNIndexPruned+st.Raw.SNObjPruned) / float64(st.Raw.SNUsersTotal)
			snN++
		}
		if st.Raw.RNPOIsTotal > 0 {
			rnFrac += float64(st.Raw.RNIndexPruned+st.Raw.RNObjPruned) / float64(st.Raw.RNPOIsTotal)
			rnN++
		}
	}
	rep.Samples["traced_executed_queries"] = int(executed)
	od := after.oracle.sub(before.oracle)
	oracleMs := frac(ms(od.covered), executed)
	rep.layer("roadnet.oracle_ms", oracleMs)
	rep.layer("roadnet.seed_label_calls", frac(float64(od.seedLabel), executed))
	rep.layer("roadnet.seed_distances_calls", frac(float64(od.seedDistances), executed))
	rep.layer("roadnet.one_to_all_calls", frac(float64(od.oneToAll), executed))
	rep.layer("roadnet.oracle_mb", float64(after.mem.OracleBytes)/(1<<20))
	rep.layer("core.engine_ms", frac(engineMs, executed))
	if engineSelf {
		rep.layer("core.engine_self_ms", frac(engineMs, executed)-oracleMs)
	}
	rep.layer("core.cand_anchors", frac(anchors, executed))
	rep.layer("core.cand_users", frac(users, executed))
	rep.layer("core.pairs_evaluated", frac(pairs, executed))
	rep.layer("index.page_reads", frac(pages, executed))
	rep.layer("index.sn_pruned_frac", frac(snFrac, snN))
	rep.layer("index.rn_pruned_frac", frac(rnFrac, rnN))
	rep.layer("gpssn.cache_hit_frac", frac(hits, answered))
	rep.layer("gpssn.facade_self_us", frac(facadeUs, answered))
	rep.layer("gpssn.gc_per_query", frac(float64(after.mem.NumGC-before.mem.NumGC), answered))
	b, a := before.shared, after.shared
	ballHits, ballMiss := float64(a.BallHits-b.BallHits), float64(a.BallMisses-b.BallMisses)
	sweepHits, sweepMiss := float64(a.SweepHits-b.SweepHits), float64(a.SweepMisses-b.SweepMisses)
	rep.layer("core.memo_ball_hit_frac", frac(ballHits, ballHits+ballMiss))
	rep.layer("core.memo_sweep_hit_frac", frac(sweepHits, sweepHits+sweepMiss))
	rep.layer("core.memo_evictions", float64(a.BallEvictions-b.BallEvictions+a.SweepRejected-b.SweepRejected))
	rep.layer("core.memo_invalidations", float64(a.RoadVersion-b.RoadVersion))
	rep.layer("core.memo_mb", float64(after.mem.MemoBytes)/(1<<20))
	rep.layer("core.arena_mb", float64(after.mem.ArenaBytes)/(1<<20))
}

// traceSetup reports the set-up layers: generation, Open, and a separate
// hub-label build over a fresh copy of the same road graph.
func traceSetup(rep *report, net *network, opens []time.Duration) {
	rep.layer("gen.generate_s", net.genTime.Seconds())
	var o []float64
	for _, d := range opens {
		o = append(o, d.Seconds())
	}
	rep.layer("gpssn.open_s", median(o))
	n, err := net.fresh()
	if err != nil {
		rep.Notes = append(rep.Notes, "roadnet.oracle_build_s not measured: "+err.Error())
		return
	}
	t0 := time.Now()
	hl.Build(n.Dataset().Road)
	rep.layer("roadnet.oracle_build_s", time.Since(t0).Seconds())
}
