// Command perfbench is the repository benchmark: it runs one workload at
// one seed for a fixed wall time and prints every end-to-end metric (or,
// with -trace 1, every per-layer metric) by name, ending with a one-line
// JSON result. BENCHMARK.json at the repository root declares the
// workloads and metrics; LEDGER.json in this directory maps each
// per-layer metric to the end-to-end metric it should move.
//
//	go run . -workload named_get -seed 1 -seconds 10 -trace 0
//
// Two clocks are reported. Virtual time is the modeled SPIN kernel;
// wall-clock time and heap are the cost of the simulator.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"
)

// config is one invocation's settings.
type config struct {
	seconds time.Duration
	trace   bool
	// tiny shrinks every workload for the self-tests.
	tiny   bool
	outDir string
}

var workloads = map[string]func(seed uint64, cfg config) (*report, error){
	"named_get": runNamedGet,
	"fleet_http": func(seed uint64, cfg config) (*report, error) {
		return runEpisodes("fleet_http", fleetEpisode, seed, cfg)
	},
	"tcp_bulk": func(seed uint64, cfg config) (*report, error) {
		return runEpisodes("tcp_bulk", tcpBulkEpisode, seed, cfg)
	},
}

func main() {
	workload := flag.String("workload", "", "workload: named_get, fleet_http or tcp_bulk")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "wall seconds to measure")
	traceMode := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for the traced run's span file")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *traceMode)
		os.Exit(2)
	}
	cfg := config{
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceMode == 1,
		outDir:  *out,
	}
	r, err := run(*seed, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if r.traceOut != "" {
		fmt.Printf("spans, counters and CPU shares written to %s\n", r.traceOut)
	}
	if err := r.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// profiled runs fn under the CPU profiler and adds the sampled CPU time of
// each layer and deciding frame to byLayer and byFrame; it returns the
// number of samples.
func profiled(fn func(), byLayer, byFrame map[string]float64) (int, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return cpuByLayer(buf.Bytes(), byLayer, byFrame)
}
