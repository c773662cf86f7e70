package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// tally counts failed output checks by name.
type tally map[string]int

// add counts n failures of the check name.
func (t *tally) add(name string, n int) {
	if n <= 0 {
		return
	}
	if *t == nil {
		*t = tally{}
	}
	(*t)[name] += n
}

// metric is one reported figure as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one invocation prints: the outcome counts, every
// violated output check by name, and the metrics of the selected mode.
type report struct {
	Workload   string
	Seed       uint64
	Attempted  int
	Failed     int
	violations tally
	metrics    map[string]metric
	notes      map[string]string
	order      []string
	// traceOut is where a traced run wrote its spans.
	traceOut string
}

func newReport(workload string, seed uint64) *report {
	return &report{
		Workload:   workload,
		Seed:       seed,
		violations: tally{},
		metrics:    make(map[string]metric),
		notes:      make(map[string]string),
	}
}

// violate records n failed output checks under name. Every violation also
// counts as a failed operation, so it shows in failed/attempted.
func (r *report) violate(name string, n int) {
	if n <= 0 {
		return
	}
	r.violations.add(name, n)
	r.Failed += n
}

// absorb adds a stretch of operations and its failed checks.
func (r *report) absorb(attempted int, t tally) {
	r.Attempted += attempted
	for name, n := range t {
		r.violate(name, n)
	}
}

// set records a metric; note says what it was computed from (sample
// count, percentile used) for the human-readable lines.
func (r *report) set(name string, value float64, unit, note string) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.notes[name] = note
}

// setWall records wall_p50_us over every sample of windows. Its note also
// gives the tail, which is a per-layer figure (see wallTail).
func (r *report) setWall(windows [][]float64) {
	var all []float64
	for _, w := range windows {
		all = append(all, w...)
	}
	d := summarize(all)
	r.set("wall_p50_us", d.P50, "us", fmt.Sprintf("p50 of %d samples; tail %.1f us", d.N, wallTail(windows)))
}

// correct reports whether every output check held.
func (r *report) correct() bool { return r.Failed == 0 && len(r.violations) == 0 }

// write prints the human-readable lines, then the one-line JSON result
// that must end standard output.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "workload %s seed %d: attempted %d failed %d\n", r.Workload, r.Seed, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.violations))
	for n := range r.violations {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "VIOLATION %s x%d\n", n, r.violations[n])
	}
	for _, n := range r.order {
		m := r.metrics[n]
		fmt.Fprintf(w, "  %-34s %16.6g %-6s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
