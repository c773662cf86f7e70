package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"spin/internal/sim"
)

// maxSpans bounds the in-memory span buffer of one traced run; spans past
// it are counted but not kept.
const maxSpans = 200_000

// span is one timed call into a layer, in both clocks. Spans of one
// request share Req; Parent is the enclosing span's ID (0 for a root).
type span struct {
	Name      string `json:"name"`
	ID        uint64 `json:"id"`
	Parent    uint64 `json:"parent"`
	Req       uint64 `json:"req"`
	WallStart int64  `json:"wall_start_ns"`
	WallEnd   int64  `json:"wall_end_ns"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
}

// tracer keeps the spans of a traced run in memory. A nil *tracer is the
// untraced run: every method is then a no-op, so timed runs pay one nil
// check per call site.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	nextID  uint64
	spans   []span
	dropped int

	// The measured stretches: process-level deltas and the CPU profile's
	// per-layer nanoseconds, summed over every stretch.
	proc    procDelta
	cpuNs   map[string]float64
	frameNs map[string]float64
	samples int
	profErr error
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), cpuNs: map[string]float64{}, frameNs: map[string]float64{}}
}

// measure runs a measured stretch fn; traced, under the CPU profiler and
// between two process readings.
func (t *tracer) measure(fn func()) {
	if t == nil {
		fn()
		return
	}
	a := readProc()
	n, err := profiled(fn, t.cpuNs, t.frameNs)
	t.proc.add(a, readProc())
	t.samples += n
	if err != nil && t.profErr == nil {
		t.profErr = err
	}
}

// shares is each layer's share of the profiled CPU time.
func (t *tracer) shares() map[string]float64 {
	var total float64
	for _, v := range t.cpuNs {
		total += v
	}
	out := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		out[l] = ratio(t.cpuNs[l], total)
	}
	return out
}

// open starts a span and returns it; close it with end.
func (t *tracer) open(name string, req, parent uint64, virt sim.Time) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &span{Name: name, ID: id, Parent: parent, Req: req,
		WallStart: int64(time.Since(t.epoch)), VirtStart: int64(virt)}
}

// end closes s and keeps it.
func (t *tracer) end(s *span, virt sim.Time) {
	if t == nil {
		return
	}
	s.WallEnd, s.VirtEnd = int64(time.Since(t.epoch)), int64(virt)
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, *s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// count is how many spans the run recorded, kept or not.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) + t.dropped
}

// frameShare is one deciding frame's share of the profiled CPU time.
type frameShare struct {
	Frame string  `json:"frame"`
	Share float64 `json:"share"`
}

// topFrames lists the frames that took the most CPU, highest first.
func (t *tracer) topFrames(n int) []frameShare {
	var total float64
	out := make([]frameShare, 0, len(t.frameNs))
	for f, v := range t.frameNs {
		total += v
		out = append(out, frameShare{Frame: f, Share: v})
	}
	for i := range out {
		out[i].Share = ratio(out[i].Share, total)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Frame < out[j].Frame
	})
	return out[:min(n, len(out))]
}

// traceFile is what a traced run writes once, at its end.
type traceFile struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Fingerprints []string           `json:"fingerprints"`
	Counters     counters           `json:"counters"`
	CPUShares    map[string]float64 `json:"cpu_shares"`
	CPUSamples   int                `json:"cpu_samples"`
	TopFrames    []frameShare       `json:"top_frames"`
	Ledger       ledger             `json:"ledger"`
	SpansDropped int                `json:"spans_dropped"`
	Spans        []span             `json:"spans"`
}

// write stores the trace as JSON under dir.
func (t *tracer) write(dir string, f traceFile) (string, error) {
	t.mu.Lock()
	f.Spans, f.SpansDropped = t.spans, t.dropped
	t.mu.Unlock()
	f.CPUShares, f.CPUSamples, f.TopFrames = t.shares(), t.samples, t.topFrames(30)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+f.Workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}
