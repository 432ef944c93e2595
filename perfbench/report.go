package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// metric is one named measurement as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits lists every end-to-end metric with its unit; each run
// reports all of them.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"query_p50_ms":   "ms",
	"query_p95_ms":   "ms",
	"throughput_qps": "1/s",
	"heap_live_mb":   "MB",
}

// perLayerUnits lists every per-layer metric of the traced run with its
// unit. A layer that is not on a workload's path reports 0. The update
// latencies are churn-wal's: only it updates (README.md explains why
// they are not end-to-end metrics).
var perLayerUnits = map[string]string{
	"update_p50_us":                "us",
	"update_p99_us":                "us",
	"roadnet.oracle_ms":            "ms",
	"roadnet.seed_label_calls":     "count",
	"roadnet.seed_distances_calls": "count",
	"roadnet.one_to_all_calls":     "count",
	"roadnet.oracle_build_s":       "s",
	"roadnet.oracle_mb":            "MB",
	"roadnet.overlay_portals_max":  "count",
	"roadnet.overlay_queries":      "count",
	"core.engine_ms":               "ms",
	"core.engine_self_ms":          "ms",
	"core.cand_anchors":            "count",
	"core.cand_users":              "count",
	"core.pairs_evaluated":         "count",
	"core.memo_ball_hit_frac":      "frac",
	"core.memo_sweep_hit_frac":     "frac",
	"core.memo_evictions":          "count",
	"core.memo_mb":                 "MB",
	"core.memo_invalidations":      "count",
	"core.arena_mb":                "MB",
	"index.page_reads":             "count",
	"index.sn_pruned_frac":         "frac",
	"index.rn_pruned_frac":         "frac",
	"gen.generate_s":               "s",
	"gpssn.open_s":                 "s",
	"gpssn.cache_hit_frac":         "frac",
	"gpssn.facade_self_us":         "us",
	"gpssn.gc_per_query":           "count",
	"gpssn.compacts":               "count",
	"gpssn.compact_s":              "s",
	"serve.overhead_p50_ms":        "ms",
	"serve.overhead_p95_ms":        "ms",
	"serve.gather_batch_mean":      "count",
	"serve.coalesced_frac":         "frac",
	"serve.shed_frac":              "frac",
	"wal.fsyncs_per_update":        "count",
	"wal.bytes_per_update":         "B",
	"wal.checkpoints":              "count",
	"wal.pending_max":              "count",
	"wal.recovery_s":               "s",
	"wal.replayed_records":         "count",
}

// phaseCount is the request tally of one phase of a run.
type phaseCount struct {
	Sent      int64 `json:"sent"`
	Succeeded int64 `json:"succeeded"`
	Failed    int64 `json:"failed"`
}

// datasetInfo records the sizes of the generated network.
type datasetInfo struct {
	Name         string `json:"name"`
	RoadVertices int    `json:"road_vertices"`
	Users        int    `json:"users"`
	POIs         int    `json:"pois"`
	Topics       int    `json:"topics"`
}

// report is everything one run measured. The result line is cut from it;
// the whole of it is printed on the line before and kept under out/reports.
type report struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Traced     bool        `json:"traced"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NProc      int         `json:"nproc"`
	GoVersion  string      `json:"go_version"`
	Dataset    datasetInfo `json:"dataset"`
	Config     string      `json:"config"`

	MeasuredSeconds float64 `json:"measured_seconds"`
	// CacheHitFrac is the share of answers the answer cache served, as
	// the responses report it.
	CacheHitFrac float64 `json:"cache_hit_frac"`
	// Samples is the sample count behind each percentile family.
	Samples map[string]int         `json:"samples"`
	Phases  map[string]*phaseCount `json:"phases"`
	// WriterLatenessUs is how late the open-loop writer sent its updates
	// (p50, p99, max), when the workload has one.
	WriterLatenessUs map[string]float64 `json:"writer_lateness_us,omitempty"`
	// UpdateP50ByKindUs is the median update latency per update kind.
	UpdateP50ByKindUs map[string]float64 `json:"update_p50_by_kind_us,omitempty"`
	// UpdateSlowestUs lists the slowest update latencies, slowest first:
	// what sets update_p99_us.
	UpdateSlowestUs []float64 `json:"update_slowest_us,omitempty"`

	// Correct is false when a checked answer was wrong or an operation
	// failed. Failed counts those and also the answers that are right but
	// not bit-identical to the reference's, which the engine promises:
	// tie divergences (another choice among equal-cost candidates) and
	// rounding divergences (distances a few units in the last place apart).
	Correct             bool     `json:"correct"`
	Attempted           int64    `json:"attempted"`
	Failed              int64    `json:"failed"`
	FailRate            float64  `json:"fail_rate"`
	WrongAnswers        int64    `json:"wrong_answers"`
	TieDivergences      int64    `json:"tie_divergences"`
	RoundingDivergences int64    `json:"rounding_divergences"`
	Failures            []string `json:"failures,omitempty"`

	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	// TraceOverhead is traced minus untraced, per end-to-end metric, when
	// the untraced run of the same workload and seed is on disk.
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`

	// AnswerDigest fingerprints the checked answer sample; the traced run
	// must reproduce the untraced one's bit for bit.
	AnswerDigest         digest   `json:"answer_digest"`
	AnswersMatchUntraced *bool    `json:"answers_match_untraced,omitempty"`
	Notes                []string `json:"notes,omitempty"`

	mu sync.Mutex
}

func newReport(o runOptions) *report {
	return &report{
		Workload:   o.workload,
		Seed:       o.seed,
		Traced:     o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Samples:    map[string]int{},
		Phases:     map[string]*phaseCount{},
		EndToEnd:   map[string]metric{},
	}
}

// maxFailureNotes bounds how many failure descriptions a report keeps.
const maxFailureNotes = 20

// sent counts one attempted operation of a phase; ok reports whether it
// succeeded, and why describes a failure.
func (r *report) sent(phase string, ok bool, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.Phases[phase]
	if p == nil {
		p = &phaseCount{}
		r.Phases[phase] = p
	}
	p.Sent++
	r.Attempted++
	if ok {
		p.Succeeded++
		return
	}
	p.Failed++
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, phase+": "+why)
	}
}

// divergent counts a checked answer that is not bit-identical to the
// reference's, by kind.
func (r *report) divergent(phase string, kind divKind, why string) {
	label := [...]string{"tie divergence", "rounding divergence", "wrong answer"}[kind]
	r.sent(phase, false, label+": "+why)
	r.mu.Lock()
	defer r.mu.Unlock()
	switch kind {
	case divTie:
		r.TieDivergences++
	case divRounding:
		r.RoundingDivergences++
	default:
		r.WrongAnswers++
	}
}

func (r *report) e2e(name string, v float64) {
	r.EndToEnd[name] = metric{Value: v, Unit: endToEndUnits[name]}
}

func (r *report) layer(name string, v float64) {
	if r.PerLayer == nil {
		r.PerLayer = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.PerLayer[name] = metric{Value: v, Unit: perLayerUnits[name]}
}

// finish fills the derived fields, fills unreported per-layer metrics
// with 0 (layer not on this workload's path), and compares a traced run
// with the untraced report of the same workload and seed.
func (r *report) finish(o runOptions) {
	for name := range endToEndUnits {
		if _, ok := r.EndToEnd[name]; !ok {
			r.Failures = append(r.Failures, "end-to-end metric "+name+" not measured")
			r.Failed++
		}
	}
	if o.trace {
		for name := range perLayerUnits {
			if _, ok := r.PerLayer[name]; !ok {
				r.layer(name, 0)
			}
		}
		r.compareUntraced(o)
	}
	if r.Attempted > 0 {
		r.FailRate = float64(r.Failed) / float64(r.Attempted)
	}
	r.Correct = r.Failed == r.TieDivergences+r.RoundingDivergences
	if err := os.MkdirAll(filepath.Dir(reportPath(o, o.trace)), 0o755); err != nil {
		r.Notes = append(r.Notes, err.Error())
	}
}

// compareUntraced reads the untraced run's report, if any, and records
// the tracing overhead and whether the traced answers match.
func (r *report) compareUntraced(o runOptions) {
	b, err := os.ReadFile(reportPath(o, false))
	if err != nil {
		r.Notes = append(r.Notes, "no untraced report for this workload and seed: overhead and answer comparison skipped")
		return
	}
	var base report
	if err := json.Unmarshal(b, &base); err != nil {
		r.Notes = append(r.Notes, fmt.Sprintf("unreadable untraced report: %v", err))
		return
	}
	r.TraceOverhead = map[string]float64{}
	for name, m := range r.EndToEnd {
		if bm, ok := base.EndToEnd[name]; ok {
			r.TraceOverhead[name] = m.Value - bm.Value
		}
	}
	match := base.AnswerDigest == r.AnswerDigest
	r.AnswersMatchUntraced = &match
	switch {
	case match:
		r.sent("trace-compare", true, "")
	case base.AnswerDigest.Objective == r.AnswerDigest.Objective:
		r.divergent("trace-compare", divTie, "traced answer sample differs from the untraced run's among equal-cost candidates")
	default:
		r.divergent("trace-compare", divWrong, "traced answer sample's distances differ from the untraced run's")
	}
}

// percentile returns the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapLiveMB forces a collection and returns the live heap in MiB.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
