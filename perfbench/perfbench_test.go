package main

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"gpssn"
	"gpssn/internal/roadnet"
	"gpssn/internal/roadnet/ch"
)

// smallNetwork is a network small enough for unit tests, kept like a
// generated workload network.
func smallNetwork(t *testing.T) *network {
	t.Helper()
	n, err := gpssn.GenerateSynthetic(gpssn.SyntheticOptions{Seed: 7, RoadVertices: 400, Users: 300, POIs: 150, Topics: 6})
	if err != nil {
		t.Fatal(err)
	}
	net, err := keep(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func openCopy(t *testing.T, net *network, cfg gpssn.Config) *gpssn.DB {
	t.Helper()
	n, err := net.fresh()
	if err != nil {
		t.Fatal(err)
	}
	db, err := gpssn.Open(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestRecorderKeepsAnswers runs the same requests on two DBs over one
// network, one with the recording decorator on its oracle seam, and
// requires bit-identical answers, unchanged label and memory reporting,
// and a non-zero call count.
func TestRecorderKeepsAnswers(t *testing.T) {
	net := smallNetwork(t)
	cfg := gpssn.DefaultConfig()
	cfg.Parallelism = 1 // schedule-independent answers on both sides
	plain := openCopy(t, net, cfg)
	traced := openCopy(t, net, cfg)

	road := traced.Engine().DS.Road
	labels, oracleBytes := road.HasLabels(), traced.MemoryStats().OracleBytes
	oc, err := installRecorder(traced)
	if err != nil {
		t.Fatal(err)
	}
	if road.HasLabels() != labels || !labels {
		t.Fatalf("HasLabels changed under the decorator: %v -> %v", labels, road.HasLabels())
	}
	if got := traced.MemoryStats().OracleBytes; got != oracleBytes || got == 0 {
		t.Fatalf("OracleBytes changed under the decorator: %d -> %d", oracleBytes, got)
	}
	o := road.Oracle()
	for name, ok := range map[string]bool{
		"LabelOracle":   implements[roadnet.LabelOracle](o),
		"CheckedOracle": implements[roadnet.CheckedOracle](o),
		"BatchOracle":   implements[roadnet.BatchOracle](o),
		"MemoryBytes":   implements[interface{ MemoryBytes() int64 }](o),
	} {
		if !ok {
			t.Errorf("decorator does not forward %s", name)
		}
	}

	reqs := coldRequests(net.first, 3, 3)[:60]
	for i, r := range reqs {
		want, _, err1 := ask(plain, r)
		got, _, err2 := ask(traced, r)
		if err1 != nil || err2 != nil {
			t.Fatalf("request %d: %v / %v", i, err1, err2)
		}
		if want.canonical() != got.canonical() {
			t.Fatalf("request %d: traced %s, untraced %s", i, got.canonical(), want.canonical())
		}
	}
	if tot := oc.snapshot(); tot.seedLabel == 0 || tot.covered <= 0 {
		t.Fatalf("decorator recorded nothing: %+v", tot)
	}
}

func implements[T any](o any) bool {
	_, ok := o.(T)
	return ok
}

// TestRecorderRefusesOtherOracles checks that an oracle without the
// hub-label capability set is refused rather than wrapped into a
// decorator that would advertise labels it lacks.
func TestRecorderRefusesOtherOracles(t *testing.T) {
	net := smallNetwork(t)
	n, err := net.fresh()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapOracle(ch.Build(n.Dataset().Road), &oracleCounters{}); err == nil {
		t.Fatal("wrapOracle accepted a contraction-hierarchy oracle")
	}
}

// TestInputsSameAtAnyGOMAXPROCS generates every workload input twice, at
// GOMAXPROCS 1 and 4, and requires identical networks and sequences.
func TestInputsSameAtAnyGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("generates full-size networks")
	}
	type inputs struct {
		encoded []byte
		cold    []request
		zipf    []request
		updates []update
	}
	gen := func(kind netKind, procs int) inputs {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		net, err := generate(kind, 11)
		if err != nil {
			t.Fatal(err)
		}
		return inputs{
			encoded: net.encoded,
			cold:    coldRequests(net.first, 11, 5),
			zipf:    zipfRequests(net.first, 11, 2000),
			updates: updateStream(net.first, 11, 1500),
		}
	}
	for _, kind := range []netKind{netUNI, netGow} {
		a, b := gen(kind, 1), gen(kind, 4)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("network kind %d: inputs differ between GOMAXPROCS 1 and 4", kind)
		}
	}
}

// TestInputsFollowSeed checks that a different seed gives different inputs.
func TestInputsFollowSeed(t *testing.T) {
	net := smallNetwork(t)
	if reflect.DeepEqual(coldRequests(net.first, 1, 5), coldRequests(net.first, 2, 5)) {
		t.Fatal("request sequence ignores the seed")
	}
	if reflect.DeepEqual(updateStream(net.first, 1, 200), updateStream(net.first, 2, 200)) {
		t.Fatal("update sequence ignores the seed")
	}
}

// TestCheckerCountsCorruptedAnswers measures a request sequence, corrupts
// recorded answers, and requires the twin checker to count each in
// fail_rate: a changed distance as a wrong answer, a distance one unit in
// the last place off as a rounding divergence, and a changed anchor with
// the same distance as a tie divergence.
func TestCheckerCountsCorruptedAnswers(t *testing.T) {
	net := smallNetwork(t)
	db := openCopy(t, net, referenceConfig())
	reqs := coldRequests(net.first, 5, 3)
	seen := make([]outcome, checkSampleSize*checkStride)
	var found []int
	for _, i := range checkSample() {
		as, _, err := ask(db, reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		seen[i] = outcome{done: true, answers: as}
		if len(as) > 0 {
			found = append(found, i)
		}
	}
	if len(found) < 3 {
		t.Fatalf("only %d sampled requests found an answer", len(found))
	}

	twin, err := openTwin(nil, net)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	clean := newReport(runOptions{workload: "test"})
	checkAgainstTwin(clean, nil, twin, reqs, seen)
	if clean.Failed != 0 {
		t.Fatalf("uncorrupted sample failed the check: %v", clean.Failures)
	}

	corrupt := func(i int, f func(a *gpssn.Answer)) {
		seen[i].answers = append(answerSet(nil), seen[i].answers...)
		f(&seen[i].answers[0])
	}
	corrupt(found[0], func(a *gpssn.Answer) { a.MaxDistance += 1e-9 })
	corrupt(found[1], func(a *gpssn.Answer) { a.Anchor++ })
	corrupt(found[2], func(a *gpssn.Answer) { a.MaxDistance = math.Nextafter(a.MaxDistance, math.Inf(1)) })
	rep := newReport(runOptions{workload: "test"})
	checkAgainstTwin(rep, nil, twin, reqs, seen)
	for name := range endToEndUnits {
		rep.e2e(name, 1)
	}
	rep.finish(runOptions{workload: "test", out: t.TempDir()})
	if rep.WrongAnswers != 1 || rep.TieDivergences != 1 || rep.RoundingDivergences != 1 || rep.Failed != 3 {
		t.Fatalf("wrong=%d ties=%d rounding=%d failed=%d, want 1 1 1 3: %v",
			rep.WrongAnswers, rep.TieDivergences, rep.RoundingDivergences, rep.Failed, rep.Failures)
	}
	if rep.Correct || rep.FailRate <= 0 {
		t.Fatalf("corrupted answer left correct=%v fail_rate=%v", rep.Correct, rep.FailRate)
	}
}

// TestRecoveryMismatchCounted feeds the recovery comparison a reopened
// answer that differs from the live one and requires it to be counted.
func TestRecoveryMismatchCounted(t *testing.T) {
	live := []outcome{{done: true, answers: answerSet{{Users: []int{1, 2}, POIs: []int{3}, Anchor: 3, MaxDistance: 2.5}}}}
	reopened := []answerSet{{{Users: []int{1, 2}, POIs: []int{3}, Anchor: 3, MaxDistance: 2.75}}}
	rep := newReport(runOptions{workload: "test"})
	compareSample(rep, "recovery", []int{0}, live, reopened, []error{nil})
	if rep.WrongAnswers != 1 || rep.Phases["recovery"].Failed != 1 {
		t.Fatalf("recovery mismatch not counted: %+v", rep.Phases["recovery"])
	}
}
