package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeSeed is the seed of the tiny smoke runs. Their inputs are fixed by
// it, so every check below is deterministic except wall-clock figures.
const smokeSeed = 3

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type ledgerFile struct {
	Workloads map[string]struct {
		Nonzero []string `json:"nonzero"`
		Zero    []string `json:"zero"`
	} `json:"workloads"`
	EndToEnd map[string]json.RawMessage `json:"end_to_end"`
	PerLayer map[string]json.RawMessage `json:"per_layer"`
}

func loadJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func loadBenchmark(t *testing.T) benchmarkFile {
	var b benchmarkFile
	loadJSON(t, "../BENCHMARK.json", &b)
	return b
}

func loadLedger(t *testing.T) ledgerFile {
	var l ledgerFile
	loadJSON(t, "LEDGER.json", &l)
	return l
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, " ") != strings.Join(w, " ") {
		t.Errorf("%s:\n got  %v\n want %v", what, g, w)
	}
}

// The tail helper reports the highest candidate percentile that has at
// least ten samples beyond it, and how many samples it rests on.
func TestSummarizeTail(t *testing.T) {
	cases := []struct {
		n                  int
		p50, tail, tailPct float64
	}{
		{1000, 500, 990, 99}, // exactly ten samples above p99
		{999, 500, 950, 95},  // nine above p99: fall back to p95
		{200, 100, 190, 95},
		{20, 10, 10, 50},
		{19, 10, 19, 100}, // no candidate has ten beyond it: the maximum
	}
	for _, c := range cases {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(c.n - i) // unsorted on purpose
		}
		d := summarize(s)
		if d.N != c.n || d.P50 != c.p50 || d.Tail != c.tail || d.TailPct != c.tailPct {
			t.Errorf("n=%d: got %+v, want p50 %g tail %g at p%g", c.n, d, c.p50, c.tail, c.tailPct)
		}
	}
	if d := summarize(nil); d.N != 0 {
		t.Errorf("empty sample: %+v", d)
	}
}

// The wall tail is the median of the windows' p99s; windows too small for
// a p99 are left out, and with none left the pooled tail stands in.
func TestWallTail(t *testing.T) {
	window := func(n int, scale float64) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = float64(i+1) * scale
		}
		return w
	}
	// p99s of 990, 1980 and 99000: one slow window does not set the tail.
	big := [][]float64{window(1000, 1), window(1000, 2), window(1000, 100), window(5, 1e9)}
	if got := wallTail(big); got != 1980 {
		t.Errorf("wallTail = %g, want 1980", got)
	}
	// Two windows of 10: no p99 anywhere; pooled, 20 samples support p50.
	if got := wallTail([][]float64{window(10, 1), window(10, 3)}); got != 8 {
		t.Errorf("pooled fallback = %g, want 8 (p50 of the 20 samples)", got)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json, LEDGER.json and the code declare the same workloads and
// metrics, under well-formed names.
func TestDeclarationsAgree(t *testing.T) {
	b, l := loadBenchmark(t), loadLedger(t)
	var wl, e2e, pl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range b.PerLayer {
		pl = append(pl, m.Name)
		if i >= len(layerMetrics) || layerMetrics[i] != (layerMetric{m.Name, m.Unit, m.Better}) {
			t.Errorf("per_layer[%d] = %+v does not match layerMetrics", i, m)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json declares %d per-layer metrics, the code %d", len(b.PerLayer), len(layerMetrics))
	}
	for _, n := range append(append(append([]string(nil), wl...), e2e...), pl...) {
		if !metricName.MatchString(n) {
			t.Errorf("malformed name %q", n)
		}
	}
	sameSet(t, "workloads in code", sortedKeys(workloads), wl)
	sameSet(t, "LEDGER.json workloads", sortedKeys(l.Workloads), wl)
	sameSet(t, "LEDGER.json end_to_end", sortedKeys(l.EndToEnd), e2e)
	sameSet(t, "LEDGER.json per_layer", sortedKeys(l.PerLayer), pl)
	for w, exp := range l.Workloads {
		for _, n := range append(append([]string(nil), exp.Nonzero...), exp.Zero...) {
			if _, ok := l.PerLayer[n]; !ok {
				t.Errorf("LEDGER.json %s lists undeclared metric %q", w, n)
			}
		}
	}
}

// A tiny run of every workload passes its output checks, emits exactly the
// declared metrics in each mode, and its traced run shows the layers the
// workload exercises as nonzero and the ones it bypasses as zero.
func TestSmokeRuns(t *testing.T) {
	b, l := loadBenchmark(t), loadLedger(t)
	var e2e, pl []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		pl = append(pl, m.Name)
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := config{seconds: 300 * time.Millisecond, trace: traced, tiny: true, outDir: t.TempDir()}
				r, err := workloads[w.Name](smokeSeed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct() || r.Attempted == 0 {
					t.Fatalf("trace=%v: attempted %d failed %d violations %v", traced, r.Attempted, r.Failed, r.violations)
				}
				want := e2e
				if traced {
					want = pl
				}
				sameSet(t, "emitted metrics", sortedKeys(r.metrics), want)
				if !traced {
					for _, n := range e2e {
						if r.metrics[n].Value <= 0 {
							t.Errorf("%s = %g, want > 0", n, r.metrics[n].Value)
						}
					}
					continue
				}
				exp := l.Workloads[w.Name]
				for _, n := range exp.Nonzero {
					if r.metrics[n].Value == 0 {
						t.Errorf("%s exercises %s, but it reads 0", w.Name, n)
					}
				}
				for _, n := range exp.Zero {
					if v := r.metrics[n].Value; v != 0 {
						t.Errorf("%s bypasses %s, but it reads %g", w.Name, n, v)
					}
				}
				if _, err := os.Stat(r.traceOut); err != nil {
					t.Errorf("span file: %v", err)
				}
			}
		})
	}
}

// Stacks are charged to the layer of their leaf frame, helpers to their
// caller, and collector or scheduler work to the runtime.
func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "spin/internal/vnet.hashBytes", "spin/internal/vnet.(*half).deliver"}, "vnet"},
		{[]string{"runtime.mallocgc", "spin/internal/sim.(*Engine).At"}, "sim"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.ready", "sync.(*Cond).Broadcast", "spin/internal/netstack.(*Driver).Run"}, "runtime.sched"},
		{[]string{"bufio.(*Reader).Read", "net/http.(*persistConn).readLoop"}, "nethttp"},
		{[]string{"main.burn"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got, _ := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

var sink uint64

func burn() {
	for i := 0; i < 1_000_000; i++ {
		sink = sink*31 + uint64(i)
	}
}

// The profile decoder reads what runtime/pprof writes.
func TestProfiledDecodes(t *testing.T) {
	byLayer, byFrame := map[string]float64{}, map[string]float64{}
	n, err := profiled(func() {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			burn()
		}
	}, byLayer, byFrame)
	if err != nil {
		t.Fatal(err)
	}
	var layers, frames float64
	for _, v := range byLayer {
		layers += v
	}
	for _, v := range byFrame {
		frames += v
	}
	if n == 0 || byLayer["other"] == 0 || layers != frames {
		t.Fatalf("%d samples, by layer %v, by frame %v", n, byLayer, byFrame)
	}
}
