package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gpssn"
)

// churn-wal settings. The WAL group-commits ("batch") every 2 ms; the
// auto-maintenance bounds make checkpoints recur and Compact run during
// the write phase.
const (
	churnWriteRate      = 50 // updates per second, open loop
	churnUpdates        = 1000
	churnFlushWindow    = 2 * time.Millisecond
	churnCheckpointB    = 32 << 10
	churnCompactPortals = 200
	churnPollEvery      = 5 * time.Millisecond
	churnQuiesceTimeout = 60 * time.Second
)

// runChurnWAL is churn-wal: uni-cold's network with a write-ahead log. A
// write phase sends the seeded update mix open-loop at a fixed rate while
// checkpoints and Compact run in the background. After maintenance
// settles and one explicit Compact folds the remaining road edits, a read
// phase asks uni-cold's shapes closed-loop against the churned DB. The
// run then closes the DB, reopens it from the checkpoint plus log replay,
// and compares the read phase's answer sample with the reopened DB's.
//
// The phases run one after the other: every update takes the DB's
// exclusive lock and waits for the query in flight, so with a concurrent
// closed-loop reader the open-loop writer's backlog grew without bound and
// neither the update nor the query figures repeated from run to run. The
// read phase runs after the explicit Compact because a query through a
// ~90-portal overlay can fall back to one-to-all sweeps per candidate
// user and run for minutes, past any run's time limit (README.md).
func runChurnWAL(o runOptions) (*report, error) {
	rep := newReport(o)
	tr := newTracer(o.trace)
	net, err := generateTraced(rep, tr, netUNI)
	if err != nil {
		return nil, err
	}
	walRoot := filepath.Join(o.out, "wal", fmt.Sprintf("%s-seed%d-trace%v", o.workload, o.seed, o.trace))
	if err := os.RemoveAll(walRoot); err != nil {
		return nil, err
	}
	defer os.RemoveAll(walRoot)
	cfgFor := func(i int) (gpssn.Config, error) {
		dir := filepath.Join(walRoot, fmt.Sprint(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return gpssn.Config{}, err
		}
		c := gpssn.DefaultConfig()
		c.WALPath = filepath.Join(dir, "log")
		c.CheckpointPath = c.WALPath + ".ckpt"
		c.WALSync = "batch"
		c.WALFlushWindow = churnFlushWindow
		c.WALAutoCheckpointBytes = churnCheckpointB
		c.OverlayCompactPortals = churnCompactPortals
		return c, nil
	}
	rep.Config = fmt.Sprintf("hl oracle, memo on, answer cache off; WAL sync=batch, flush window %v; auto-checkpoint above %d log bytes; auto-Compact above %d overlay portals; write phase: %d updates open-loop at %d/s; read phase: 1 closed-loop client with uni-cold's shapes",
		churnFlushWindow, churnCheckpointB, churnCompactPortals, churnUpdates, churnWriteRate)
	var cfg gpssn.Config
	st, opens, err := timedSetup(rep, tr, net, func(n *gpssn.Network, i int) (*stack, time.Duration, error) {
		if cfg, err = cfgFor(i); err != nil {
			return nil, 0, err
		}
		db, open, err := openTimed(tr, n, cfg, int64(-20-i))
		if err != nil {
			return nil, 0, err
		}
		return &stack{db: db, close: func() { db.Close() }}, open, nil
	})
	if err != nil {
		return nil, err
	}
	db := st.db

	// Write phase.
	var poll *maintPoller
	if o.trace {
		poll = startPoller(db)
	}
	ups := updateStream(net.first, o.seed, churnUpdates)
	lat, lateness, upErrs := openLoopWriter(db, ups, churnWriteRate, tr, 1<<40)
	scoreUpdates(rep, "write", ups, lat, lateness, upErrs)
	if err := quiesce(db); err != nil {
		rep.sent("write", false, err.Error())
	}
	var ps pollSummary
	if poll != nil {
		ps = poll.stop()
	}
	t0 := time.Now()
	if err := db.Compact(); err != nil {
		rep.sent("write", false, "Compact: "+err.Error())
	}
	tr.record(-4, "gpssn.Compact", "", t0)
	ps.compacts++
	ps.compactTime += time.Since(t0)

	// Read phase.
	reqs := coldRequests(net.first, o.seed, 5)
	before := observe(db, nil)
	lr := closedLoop(1, reqs, o.seconds, minQueries, func(i int, r request) outcome {
		t0 := time.Now()
		as, stats, err := ask(db, r)
		lt := time.Since(t0)
		tr.record(int64(i), r.opName(), "", t0)
		return outcome{latency: lt, answers: as, err: err, stats: stats}
	})
	after := observe(db, nil)
	scoreLoop(rep, lr)
	rep.e2e("heap_live_mb", heapLiveMB())
	if o.trace {
		traceLayers(rep, lr, before, after, false)
		traceSetup(rep, net, opens)
		rep.layer("core.memo_invalidations", float64(ps.memo.RoadVersion))
		rep.layer("roadnet.overlay_portals_max", float64(ps.portalsMax))
		rep.layer("roadnet.overlay_queries", frac(float64(ps.overlayQueries), float64(len(ups))))
		rep.layer("gpssn.compacts", float64(ps.compacts))
		rep.layer("gpssn.compact_s", frac(ps.compactTime.Seconds(), float64(ps.compacts)))
		ws := db.WALStats()
		rep.layer("wal.fsyncs_per_update", frac(float64(ws.Fsyncs), float64(len(ups))))
		rep.layer("wal.bytes_per_update", ps.bytesPerRecord)
		rep.layer("wal.checkpoints", float64(ps.checkpoints))
		rep.layer("wal.pending_max", float64(ps.pendingMax))
	}

	// Recovery check: the read phase's answers to the fixed sample against
	// a DB reopened from the checkpoint plus the log.
	replayed := db.WALStats().Pending
	if err := db.Close(); err != nil {
		return nil, fmt.Errorf("closing the live DB: %w", err)
	}
	t0 = time.Now()
	re, err := reopen(net, cfg)
	recovery := time.Since(t0)
	tr.record(-3, "gpssn.Reopen", "recovery", t0)
	if err != nil {
		rep.sent("recovery", false, err.Error())
	} else {
		sample := checkSample()
		got := make([]answerSet, len(sample))
		errs := make([]error, len(sample))
		for j, i := range sample {
			got[j], _, errs[j] = ask(re, reqs[i])
		}
		re.Close()
		rep.AnswerDigest = compareSample(rep, "recovery", sample, lr.outcomes, got, errs)
	}
	if o.trace {
		rep.layer("wal.recovery_s", recovery.Seconds())
		rep.layer("wal.replayed_records", float64(replayed))
	}
	return rep, tr.write(o)
}

// reopen restores the DB the way a restart would: from the checkpoint
// when one was written, else from the original network, replaying the log.
func reopen(net *network, cfg gpssn.Config) (*gpssn.DB, error) {
	if _, err := os.Stat(cfg.CheckpointPath); err == nil {
		return gpssn.OpenSnapshot(cfg.CheckpointPath, cfg)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	n, err := net.fresh()
	if err != nil {
		return nil, err
	}
	return gpssn.Open(n, cfg)
}

// quiesce waits until background maintenance (auto-Compact, checkpoint)
// has finished.
func quiesce(db *gpssn.DB) error {
	deadline := time.Now().Add(churnQuiesceTimeout)
	for db.Maintaining() || db.Health().Rebuilding {
		if time.Now().After(deadline) {
			return fmt.Errorf("background maintenance still running after %v", churnQuiesceTimeout)
		}
		time.Sleep(churnPollEvery)
	}
	return nil
}

// maintPoller samples the DB's exported maintenance counters while the
// traced churn run measures: Compact intervals (Health().Rebuilding),
// overlay size, log checkpoints and backlog, and the shared-work memo.
// The overlay and memo counters reset when Compact swaps the engine, so
// their increments are summed across resets.
type maintPoller struct {
	db    *gpssn.DB
	stopc chan struct{}
	done  chan pollSummary
}

type pollSummary struct {
	compacts       int
	compactTime    time.Duration
	portalsMax     int
	overlayQueries int64
	checkpoints    int
	pendingMax     int64
	bytesPerRecord float64
	// memo holds the memo counters' increments over the write phase.
	memo gpssn.SharedWorkStats
}

func startPoller(db *gpssn.DB) *maintPoller {
	p := &maintPoller{db: db, stopc: make(chan struct{}), done: make(chan pollSummary, 1)}
	go p.run()
	return p
}

func (p *maintPoller) stop() pollSummary {
	close(p.stopc)
	return <-p.done
}

// grow adds to *sum the increase of a counter from *last to now, where a
// decrease means the counter was reset to zero in between.
func grow[T int64 | uint64](sum, last *T, now T) {
	if now >= *last {
		*sum += now - *last
	} else {
		*sum += now
	}
	*last = now
}

func (p *maintPoller) run() {
	var s pollSummary
	var rebuilding bool
	var since time.Time
	lastOverlay := p.db.RoadOverlayStats().Queries
	lastMemo := p.db.SharedWorkStats()
	startLSN := p.db.WALStats().StartLSN
	tick := time.NewTicker(churnPollEvery)
	defer tick.Stop()
	sample := func() {
		h := p.db.Health()
		if h.Rebuilding && !rebuilding {
			since = time.Now()
		}
		if !h.Rebuilding && rebuilding {
			s.compacts++
			s.compactTime += time.Since(since)
		}
		rebuilding = h.Rebuilding
		ov := p.db.RoadOverlayStats()
		if ov.Portals > s.portalsMax {
			s.portalsMax = ov.Portals
		}
		grow(&s.overlayQueries, &lastOverlay, ov.Queries)
		sw := p.db.SharedWorkStats()
		grow(&s.memo.BallHits, &lastMemo.BallHits, sw.BallHits)
		grow(&s.memo.BallMisses, &lastMemo.BallMisses, sw.BallMisses)
		grow(&s.memo.BallEvictions, &lastMemo.BallEvictions, sw.BallEvictions)
		grow(&s.memo.SweepHits, &lastMemo.SweepHits, sw.SweepHits)
		grow(&s.memo.SweepMisses, &lastMemo.SweepMisses, sw.SweepMisses)
		grow(&s.memo.SweepRejected, &lastMemo.SweepRejected, sw.SweepRejected)
		grow(&s.memo.RoadVersion, &lastMemo.RoadVersion, sw.RoadVersion)
		ws := p.db.WALStats()
		if ws.StartLSN != startLSN {
			s.checkpoints++
			startLSN = ws.StartLSN
		}
		if ws.Pending > s.pendingMax {
			s.pendingMax = ws.Pending
			s.bytesPerRecord = float64(ws.Bytes-walHeaderBytes) / float64(ws.Pending)
		}
	}
	for {
		select {
		case <-p.stopc:
			sample()
			p.done <- s
			return
		case <-tick.C:
			sample()
		}
	}
}

// walHeaderBytes is the log file's fixed header (internal/wal).
const walHeaderBytes = 16
