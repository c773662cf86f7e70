package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"spin/internal/vnet"
)

// episode is one complete, seeded run of an episodic workload on a fresh
// topology: set up, drive, drain, check. Episodes at one seed must replay
// exactly, so a run's episodes double as its replay check.
type episode struct {
	setup, heapKB, wall float64 // s, KB per machine, s
	attempted, ops      int
	bytes               int64
	wallLat, virtLat    []float64 // µs per operation
	engines             int
	fp, virtKey         uint64
	violations          tally
	// counters is the measured stretch's reading of the topology's
	// counters plus the workload's own (sim.events, fs.*, bcode.*, ...).
	counters counters
}

// checkConns counts a violation unless the topology holds exactly want
// connections after its final drain.
func (ep *episode) checkConns(in *vnet.Internet, want int, name string) {
	left := 0
	for _, m := range in.Machines() {
		left += in.Machine(m).Stack.TCP().Conns()
	}
	if left != want {
		ep.violations.add(name, 1)
	}
}

// fingerprint records the topology fingerprint and a digest of every
// virtual-time result, the two things a replay must reproduce.
func (ep *episode) fingerprint(in *vnet.Internet) {
	ep.fp = in.Fingerprint()
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(ep.counters["sim.events"]))
	put(uint64(ep.ops))
	for _, v := range ep.virtLat {
		put(math.Float64bits(v))
	}
	ep.virtKey = h.Sum64()
}

// episodeFunc runs one episode; tr is nil outside the traced episode.
type episodeFunc func(seed uint64, cfg config, tr *tracer) (*episode, error)

// subSeed is the input seed of a run's k-th episode. Each episode draws
// fresh inputs, so a run's figures rest on more than one request stream;
// episode 0 is replayed at the end of every run.
func subSeed(seed uint64, k int) uint64 {
	x := seed + uint64(k)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// runEpisodes runs episodes on fresh inputs for the run's time, replays
// the first, and reports the end-to-end metrics. Traced, it runs a third
// of the time untraced (the overhead baseline) and the rest traced,
// starting with the replay, and reports the ledger.
func runEpisodes(name string, fn episodeFunc, seed uint64, cfg config) (*report, error) {
	r := newReport(name, seed)
	// stretch runs episodes 0, 1, ... until dur has passed, at least one.
	stretch := func(dur time.Duration, tr *tracer) ([]*episode, error) {
		var eps []*episode
		start := time.Now()
		for k := 0; k == 0 || time.Since(start) < dur; k++ {
			ep, err := fn(subSeed(seed, k), cfg, tr)
			if err != nil {
				return nil, err
			}
			r.absorb(ep.attempted, ep.violations)
			eps = append(eps, ep)
		}
		return eps, nil
	}
	untracedDur := cfg.seconds
	if cfg.trace {
		untracedDur /= 3
	}
	untraced, err := stretch(untracedDur, nil)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// Untimed, the replay is one more episode 0; traced, it starts the
	// traced stretch.
	replays, err := stretch(cfg.seconds-untracedDur, tr)
	if err != nil {
		return nil, err
	}
	if replays[0].fp != untraced[0].fp || replays[0].virtKey != untraced[0].virtKey {
		r.violate(name+".replay_diverged", 1)
	}

	if !cfg.trace {
		// Episode 0 warms the process up (heap growth, first-touch page
		// faults) and is left out of the wall-clock figures; its replay
		// is counted instead.
		timed := append(untraced[1:len(untraced):len(untraced)], replays[0])
		var ops, wall float64
		var bytes int64
		var wallLat [][]float64
		for _, ep := range timed {
			ops += float64(ep.ops)
			bytes += ep.bytes
			wall += ep.wall
			wallLat = append(wallLat, ep.wallLat)
		}
		var setups, heaps []float64
		for _, ep := range append(timed, untraced[0]) {
			setups = append(setups, ep.setup)
			heaps = append(heaps, ep.heapKB)
		}
		note := fmt.Sprintf("%.0f ops in %d episodes, %.2fs measured", ops, len(timed), wall)
		r.set("req_per_s", ops/wall, "1/s", note)
		r.set("goodput_wall_MBps", float64(bytes)/wall/1e6, "MB/s", note)
		r.setWall(wallLat)
		r.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d setups", len(setups)))
		r.set("heap_kb_per_machine", median(heaps), "KB", fmt.Sprintf("median of %d episodes", len(heaps)))
		return r, nil
	}

	if tr.profErr != nil {
		return nil, tr.profErr
	}
	c := counters{}
	var ops, plainOps, plainWall float64
	var plainLat [][]float64
	for _, ep := range replays {
		c.add(ep.counters)
		ops += float64(ep.ops)
	}
	for _, ep := range untraced {
		plainOps += float64(ep.ops)
		plainWall += ep.wall
		plainLat = append(plainLat, ep.wallLat)
	}
	l := ledger{}
	l.fromCounters(c, ops)
	l.fromTracer(tr, ops)
	l.virtual(replays[0].virtLat)
	l["wall_p99_us"] = wallTail(plainLat)
	l["sim.engines"] = float64(replays[0].engines)
	l["fail_ratio"] = ratio(float64(r.Failed), float64(r.Attempted))
	l["replay.mismatches"] = float64(r.violations[name+".replay_diverged"])
	l["trace.overhead_ratio"] = ratio(plainOps/plainWall, ops/tr.proc.wall.Seconds())
	l.emit(r)
	path, err := tr.write(cfg.outDir, traceFile{
		Workload: name, Seed: seed,
		Fingerprints: []string{fmt.Sprintf("%#x", untraced[0].fp), fmt.Sprintf("%#x", replays[0].fp)},
		Counters:     c, Ledger: l,
	})
	if err != nil {
		return nil, err
	}
	r.traceOut = path
	return r, nil
}
