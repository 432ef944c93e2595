package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gpssn/internal/roadnet"
)

// The traced run records spans from the benchmark's own code, around every
// call it makes into a layer, and counts the calls the engine makes into
// the road-distance seam through a recording decorator. Spans inside the
// program are not recorded here.

// span is one timed layer call. Spans of one request share ID; Parent
// names the span that caused it ("" for a root).
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// tracer keeps spans in memory; write stores them when the run ends. A nil
// tracer records nothing, which is how untraced runs call it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// record stores a span that started at start and ends now.
func (t *tracer) record(id int64, name, parent string, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent,
		Start: start.Sub(t.t0).Microseconds(), End: end.Sub(t.t0).Microseconds()})
	t.mu.Unlock()
}

// write stores the spans as JSON lines under out/traces.
func (t *tracer) write(o runOptions) error {
	if t == nil {
		return nil
	}
	path := filepath.Join(o.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// oracleCounters accumulates what the recording decorator observes: call
// counts per seam method, and the wall time during which at least one
// oracle call was running (the union of the calls' intervals, so parallel
// refinement workers are not double counted). One mutex guards it all, so
// a call costs one lock round trip on entry and one on exit.
type oracleCounters struct {
	mu     sync.Mutex
	totals oracleTotals
	active int
	since  time.Time
}

// enter records the start of a call; calls counts it into one of the
// totals' call counters.
func (c *oracleCounters) enter(calls func(*oracleTotals)) {
	c.mu.Lock()
	calls(&c.totals)
	if c.active == 0 {
		c.since = time.Now()
	}
	c.active++
	c.mu.Unlock()
}

func (c *oracleCounters) exit() {
	c.mu.Lock()
	c.active--
	if c.active == 0 {
		c.totals.covered += time.Since(c.since)
	}
	c.mu.Unlock()
}

// snapshot returns the counters' current totals.
func (c *oracleCounters) snapshot() oracleTotals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals
}

type oracleTotals struct {
	seedLabel, seedDistances, oneToAll int64
	covered                            time.Duration
}

func (a oracleTotals) sub(b oracleTotals) oracleTotals {
	return oracleTotals{a.seedLabel - b.seedLabel, a.seedDistances - b.seedDistances,
		a.oneToAll - b.oneToAll, a.covered - b.covered}
}

func countSeedLabel(t *oracleTotals)     { t.seedLabel++ }
func countSeedDistances(t *oracleTotals) { t.seedDistances++ }
func countOneToAll(t *oracleTotals)      { t.oneToAll++ }

// fullOracle is the capability set of the hub-label oracle, the one the
// read workloads run on. roadnet.Graph type-asserts each optional
// interface, so the decorator must offer exactly the set its inner oracle
// has.
type fullOracle interface {
	roadnet.LabelOracle
	roadnet.CheckedOracle
	roadnet.BatchOracle
	MemoryBytes() int64
}

// recordingOracle forwards every call to the real oracle and counts it.
type recordingOracle struct {
	inner fullOracle
	c     *oracleCounters
}

// wrapOracle returns the recording decorator for o. It refuses an oracle
// whose capability set differs from the hub-label oracle's, since a
// decorator offering more or fewer interfaces would change the engine's
// code path.
func wrapOracle(o roadnet.DistanceOracle, c *oracleCounters) (roadnet.DistanceOracle, error) {
	f, ok := o.(fullOracle)
	if !ok {
		return nil, fmt.Errorf("oracle %T lacks the hub-label capability set; tracing supports the hl oracle only", o)
	}
	return &recordingOracle{inner: f, c: c}, nil
}

func (r *recordingOracle) SeedDistances(sources []roadnet.Seed, targets []roadnet.VertexID, bound float64) []float64 {
	r.c.enter(countSeedDistances)
	defer r.c.exit()
	return r.inner.SeedDistances(sources, targets, bound)
}

func (r *recordingOracle) OneToAll(sources []roadnet.Seed) []float64 {
	r.c.enter(countOneToAll)
	defer r.c.exit()
	return r.inner.OneToAll(sources)
}

func (r *recordingOracle) SeedLabel(seeds []roadnet.Seed, dst *roadnet.HubLabel) {
	r.c.enter(countSeedLabel)
	defer r.c.exit()
	r.inner.SeedLabel(seeds, dst)
}

func (r *recordingOracle) SeedDistancesCk(sources []roadnet.Seed, targets []roadnet.VertexID, bound float64, ck *roadnet.Checkpoint) []float64 {
	r.c.enter(countSeedDistances)
	defer r.c.exit()
	return r.inner.SeedDistancesCk(sources, targets, bound, ck)
}

func (r *recordingOracle) OneToAllCk(sources []roadnet.Seed, ck *roadnet.Checkpoint) []float64 {
	r.c.enter(countOneToAll)
	defer r.c.exit()
	return r.inner.OneToAllCk(sources, ck)
}

func (r *recordingOracle) OneToAllBatchCk(sources [][]roadnet.Seed, ck *roadnet.Checkpoint) [][]float64 {
	r.c.enter(func(t *oracleTotals) { t.oneToAll += int64(len(sources)) })
	defer r.c.exit()
	return r.inner.OneToAllBatchCk(sources, ck)
}

func (r *recordingOracle) MemoryBytes() int64 { return r.inner.MemoryBytes() }
