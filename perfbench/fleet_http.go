package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"

	"spin/internal/bcode"
	"spin/internal/fs"
	"spin/internal/netstack"
	"spin/internal/sim"
	"spin/internal/vnet"
)

// fleet_http is an open loop in virtual time: 28 clients of a 32-machine
// fat tree issue in-kernel HTTP GETs at seeded arrival times to 4 web
// servers, each serving a 200-file set through the hybrid web cache
// behind a verified pass-through packet filter. One episode is one
// Internet.Run over a fixed virtual span, so it replays exactly; a run
// repeats episodes at its seed until its time is up.

const (
	fleetCores, fleetEdges, fleetHostsPerEdge = 2, 4, 8
	fleetFiles                                = 200
	fleetMinFile, fleetMaxFile                = 256, 8 << 10
	fleetLargeFile                            = 96 << 10
	// fleetLargeEvery makes every 25th file (by popularity rank, from
	// rank 7) a large one: uncached, read through the non-caching path.
	fleetLargeEvery, fleetLargeFirst = 25, 7
	fleetLargeThreshold              = 64 << 10
	fleetCacheBytes                  = 1 << 20
	fleetZipfS                       = 1.0
	fleetMeanGap                     = 100 * sim.Millisecond
	fleetServerBps                   = 10_000_000
	fleetCoreBps                     = 1_000_000_000
)

// fleetSpan is the virtual span of one episode's arrivals.
func fleetSpan(cfg config) sim.Duration {
	if cfg.tiny {
		return 500 * sim.Millisecond
	}
	return 8 * sim.Second
}

// fleetRequest is one generated input: who asks whom for what, and when.
type fleetRequest struct {
	client, server int
	file           int
	due            sim.Duration // after the episode's start
}

// fleetSizes is the file set's sizes by popularity rank. They are fixed,
// not seeded: with Zipf-skewed requests the few most popular files carry
// most of the load, so seeding their sizes would make the seed, not the
// program, set the figures.
func fleetSizes() []int {
	sizes := make([]int, fleetFiles)
	for i := range sizes {
		if i%fleetLargeEvery == fleetLargeFirst {
			sizes[i] = fleetLargeFile
			continue
		}
		// Log-uniform over [fleetMinFile, fleetMaxFile], spread by the
		// golden-ratio sequence so neighbouring ranks differ.
		frac := math.Mod(float64(i)*0.6180339887, 1)
		sizes[i] = int(float64(fleetMinFile) * math.Pow(float64(fleetMaxFile)/fleetMinFile, frac))
	}
	return sizes
}

// fleetInputs generates the request schedule: arrival times, clients,
// servers and Zipf-skewed files.
func fleetInputs(seed uint64, span sim.Duration) (sizes []int, reqs []fleetRequest) {
	rng := rand.New(rand.NewPCG(seed, 0x666c656574))
	sizes = fleetSizes()
	cdf := make([]float64, fleetFiles)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), fleetZipfS)
		cdf[i] = sum
	}
	clients := fleetEdges * (fleetHostsPerEdge - 1)
	for c := 0; c < clients; c++ {
		t := sim.Duration(0)
		for {
			t += sim.Duration(rng.ExpFloat64() * float64(fleetMeanGap))
			if t >= span {
				break
			}
			f := sort.SearchFloat64s(cdf, rng.Float64()*sum)
			reqs = append(reqs, fleetRequest{client: c, server: rng.IntN(fleetEdges), file: min(f, fleetFiles-1), due: t})
		}
	}
	return sizes, reqs
}

// fleetContent generates file bodies (shared by every server).
func fleetContent(seed uint64, sizes []int) [][]byte {
	rng := rand.New(rand.NewPCG(seed, 0x626f646965))
	out := make([][]byte, len(sizes))
	for i, n := range sizes {
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		out[i] = b
	}
	return out
}

func fleetPath(file int) string { return "/f/" + strconv.Itoa(file) }

// passFilter drops UDP to the discard port, which no fleet traffic uses:
// every packet runs the verified program and passes.
var passFilter = bcode.New(
	bcode.LdCtx(3, netstack.CtxProto),
	bcode.JneImm(3, int32(netstack.ProtoUDP), 3),
	bcode.LdCtx(4, netstack.CtxDstPort),
	bcode.JneImm(4, 9, 1),
	bcode.Ja(2),
	bcode.MovImm(0, 0),
	bcode.Exit(),
	bcode.MovImm(0, 1),
	bcode.Exit(),
).Encode()

// timedContent is the benchmark's HTTPContent wrapper for traced runs: it
// opens a span around every WebCache.Get and sums its wall time.
type timedContent struct {
	wc     *fs.WebCache
	tr     *tracer
	clock  *sim.Clock
	parent *uint64
	calls  int
	wall   time.Duration
}

func (t *timedContent) Get(path string) ([]byte, bool) {
	s := t.tr.open("fs.webcache_get", 0, *t.parent, t.clock.Now())
	w0 := time.Now()
	b, ok := t.wc.Get(path)
	t.wall += time.Since(w0)
	t.calls++
	t.tr.end(s, t.clock.Now())
	return b, ok
}

type fleetLab struct {
	in      *vnet.Internet
	servers []string
	clients []string
	caches  []*fs.WebCache
	timed   []*timedContent
	filters []*netstack.BCodeFilter
	runSpan uint64
}

// buildFleet builds the fat tree, the file sets, caches, filters and HTTP
// servers. Servers are the first host of each edge switch.
func buildFleet(seed uint64, bodies [][]byte, tr *tracer) (*fleetLab, error) {
	up := vnet.LinkModel{Latency: 50 * sim.Microsecond, BandwidthBps: fleetCoreBps}
	down := vnet.LinkModel{Latency: 100 * sim.Microsecond, BandwidthBps: fleetServerBps}
	in, err := vnet.FatTree(fleetCores, fleetEdges, fleetHostsPerEdge, up, down, seed)
	if err != nil {
		return nil, err
	}
	lab := &fleetLab{in: in}
	for i, h := range in.Machines() {
		if i%fleetHostsPerEdge == 0 {
			lab.servers = append(lab.servers, h)
		} else {
			lab.clients = append(lab.clients, h)
		}
	}
	for _, s := range lab.servers {
		m := in.Machine(s)
		for i, b := range bodies {
			if err := m.FS.Create(fleetPath(i), b); err != nil {
				return nil, err
			}
		}
		wc := fs.NewWebCache(m.FS, fleetCacheBytes, fleetLargeThreshold)
		lab.caches = append(lab.caches, wc)
		var content netstack.HTTPContent = wc
		if tr != nil {
			tc := &timedContent{wc: wc, tr: tr, clock: m.Clock, parent: &lab.runSpan}
			lab.timed = append(lab.timed, tc)
			content = tc
		}
		f, err := m.LoadFilter("fleet-pass", passFilter)
		if err != nil {
			return nil, err
		}
		lab.filters = append(lab.filters, f)
		if _, err := netstack.NewHTTPServer(m.Stack, 80, netstack.InKernelDelivery, content); err != nil {
			return nil, err
		}
	}
	return lab, nil
}

func fleetEpisode(seed uint64, cfg config, tr *tracer) (*episode, error) {
	sizes, reqs := fleetInputs(seed, fleetSpan(cfg))
	bodies := fleetContent(seed, sizes)
	ep := &episode{}
	base := liveHeap()
	t0 := time.Now()
	lab, err := buildFleet(seed, bodies, tr)
	if err != nil {
		return nil, err
	}
	ep.setup = time.Since(t0).Seconds()
	in := lab.in
	ep.heapKB = heapPerMachineKB(base, len(in.Machines()))
	ep.engines = len(in.Cluster().Engines())

	// Arrivals start after the latest clock: writing the file sets charged
	// the servers' disks, which moved their clocks.
	var start sim.Time
	for _, name := range in.Machines() {
		start = max(start, in.Machine(name).Clock.Now())
	}
	start = start.Add(sim.Millisecond)

	c0 := readCounters(in)
	w0 := time.Now()
	runSpan := tr.open("sim.run", 0, 0, start)
	lab.runSpan = spanID(runSpan)
	ep.attempted = len(reqs)
	answered, refused := 0, 0
	virt := make([]float64, 0, len(reqs))
	for i, rq := range reqs {
		id := uint64(i + 1)
		rq := rq
		client := in.Machine(lab.clients[rq.client])
		server := in.IP(lab.servers[rq.server])
		due := start.Add(rq.due)
		want := sizes[rq.file]
		client.Engine.At(due, func() {
			issued := time.Now()
			s := tr.open("fleet.request", id, lab.runSpan, due)
			err := netstack.HTTPGet(client.Stack, server, 80, fleetPath(rq.file), netstack.InKernelDelivery,
				func(status string, body []byte) {
					now := client.Clock.Now()
					tr.end(s, now)
					answered++
					switch {
					case status != "HTTP/1.0 200 OK":
						ep.violations.add("fleet_http.status", 1)
					case len(body) != want:
						ep.violations.add("fleet_http.body_length", 1)
					default:
						ep.ops++
						ep.bytes += int64(len(body))
						ep.wallLat = append(ep.wallLat, float64(time.Since(issued).Nanoseconds())/1e3)
						virt = append(virt, now.Sub(due).Micros())
					}
				})
			if err != nil {
				refused++
				ep.violations.add("fleet_http.connect", 1)
			}
		})
	}
	var events int
	tr.measure(func() { events = in.Run(0) })
	ep.wall = time.Since(w0).Seconds()
	var end sim.Time
	for _, name := range in.Machines() {
		end = max(end, in.Machine(name).Clock.Now())
	}
	tr.end(runSpan, end)
	ep.violations.add("fleet_http.incomplete", ep.attempted-answered-refused)
	ep.virtLat = virt
	ep.checkConns(in, 0, "fleet_http.conns_left")
	c := readCounters(in).since(c0)
	c["sim.events"] = int64(events)
	for i, wc := range lab.caches {
		c["fs.hits"] += wc.Hits
		c["fs.misses"] += wc.Misses
		c["fs.large_reads"] += wc.LargeReads
		h, m := in.Machine(lab.servers[i]).FS.CacheStats()
		c["fs.bcache_hits"] += h
		c["fs.bcache_misses"] += m
	}
	for _, tc := range lab.timed {
		c["fs.gets"] += int64(tc.calls)
		c["fs.get_ns"] += tc.wall.Nanoseconds()
	}
	for _, f := range lab.filters {
		runs, matched := f.Stats()
		c["bcode.runs"] += runs
		c["bcode.matched"] += matched
		if f.Quarantined() {
			c["bcode.quarantined"]++
		}
	}
	ep.counters = c
	ep.fingerprint(in)
	return ep, nil
}
