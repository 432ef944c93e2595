// Command perfbench is the repository benchmark: it runs one named
// workload against the gpssn engine, checks the answers, and prints every
// metric by name with its unit. README.md in this directory describes the
// workloads, the metrics and the layer each per-layer metric belongs to.
//
//	perfbench -workload uni-cold -seed 1 -seconds 15 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. The line before it is the
// full run report (metadata, sample counts, phase counts, tracing
// overhead). The exit code is 0 when the run completed, whether or not
// every answer checked out; a run that could not complete exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runOptions is one invocation's parameters.
type runOptions struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for reports, spans and WAL scratch files
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runOptions) (*report, error){
	"uni-cold":   runUniCold,
	"gow-cold":   runGowCold,
	"serve-zipf": runServeZipf,
	"churn-wal":  runChurnWAL,
}

func main() {
	var o runOptions
	var traceFlag int
	var secs int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed for the request and update sequences")
	flag.IntVar(&secs, "seconds", 15, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for reports, span files and scratch data")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || secs < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	if err := emit(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit writes the report file and prints the report line, then the result
// line last.
func emit(o runOptions, rep *report) error {
	rep.finish(o)
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := os.WriteFile(reportPath(o, o.trace), full, 0o644); err != nil {
		return fmt.Errorf("writing report: %w", err)
	}
	metrics := rep.EndToEnd
	if o.trace {
		metrics = rep.PerLayer
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(full))
	fmt.Println(string(line))
	return nil
}

// reportPath is where a run's full report lands; the traced run of the
// same workload and seed reads the untraced one's to compute overhead and
// compare answers.
func reportPath(o runOptions, traced bool) string {
	t := 0
	if traced {
		t = 1
	}
	return filepath.Join(o.out, "reports", fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, t))
}
