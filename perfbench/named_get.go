package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"spin"
	"spin/internal/lb"
	"spin/internal/netstack"
	"spin/internal/sim"
	"spin/internal/vnet"
)

// named_get is the canonical request: an unmodified net/http client GETs
// a document by service name, in a closed loop with one client goroutine.
// Every GET dials (keep-alives off) through the resilient dialer, which
// resolves a replica name through the topology's DNS and picks it on the
// balancer's ring; the replica answers from the in-kernel HTTP server.

const (
	namedDocs     = 64
	namedMinDoc   = 256
	namedMaxDoc   = 4 << 10
	namedReplicas = 3
	// namedSetups is how many times a run builds the topology; setup_s is
	// the median.
	namedSetups = 15
	// namedReplayGets is the length of the fixed-size prefix the traced run
	// replays twice to record fingerprint agreement and virtual drift.
	namedReplayGets = 32
)

// namedWarmup is how long a run issues GETs before it measures.
func namedWarmup(cfg config) time.Duration {
	if cfg.tiny {
		return 0
	}
	return time.Second
}

type namedLab struct {
	in     *vnet.Internet
	client *spin.Machine
	bal    *lb.Balancer
	rd     *lb.ResilientDialer
	httpc  *http.Client
	docs   netstack.ContentMap
	paths  []string
	tr     *tracer

	// The transport dials on its own goroutine; the request being served
	// and the dial figures cross over under mu.
	mu       sync.Mutex
	req      uint64
	parent   uint64
	dialWall []float64
	dialVirt []float64
	lastDial sim.Duration
}

// namedDocuments generates the served documents: sizes spread evenly over
// [namedMinDoc, namedMaxDoc] by index, contents from the seed. The seed
// picks the paths requested, so fixed sizes keep it from setting the
// figures.
func namedDocuments(seed uint64) (netstack.ContentMap, []string) {
	rng := rand.New(rand.NewPCG(seed, 0x6e616d6564))
	docs := make(netstack.ContentMap, namedDocs)
	paths := make([]string, namedDocs)
	for i := range paths {
		paths[i] = fmt.Sprintf("/doc/%02d", i)
		body := make([]byte, namedMinDoc+i*(namedMaxDoc-namedMinDoc)/(namedDocs-1))
		for j := range body {
			body[j] = byte(rng.Uint32())
		}
		docs[paths[i]] = body
	}
	return docs, paths
}

// buildNamed builds the 5-machine star: client, ns and web0..web2 around
// one switch, 200 µs spokes, the replicas behind a balancer on the client.
func buildNamed(seed uint64, docs netstack.ContentMap) (*namedLab, error) {
	edge := vnet.LinkModel{Latency: 200 * sim.Microsecond}
	b := vnet.NewBuilder(seed).Machine("client", 0).Machine("ns", 0).Switch("s0")
	b.Link("client", "s0", edge).Link("ns", "s0", edge)
	replicas := make([]string, namedReplicas)
	for i := range replicas {
		replicas[i] = fmt.Sprintf("web%d", i)
		b.Machine(replicas[i], 0).Link(replicas[i], "s0", edge)
	}
	in, err := b.Build()
	if err != nil {
		return nil, err
	}
	if err := in.EnableDNS("ns"); err != nil {
		return nil, err
	}
	for _, w := range replicas {
		if _, err := netstack.NewHTTPServer(in.Machine(w).Stack, 80, netstack.InKernelDelivery, docs); err != nil {
			return nil, err
		}
	}
	bal, err := in.Balancer("client", lb.Config{}, replicas...)
	if err != nil {
		return nil, err
	}
	rd, err := in.ResilientDialer("client", bal, lb.RetryPolicy{})
	if err != nil {
		return nil, err
	}
	lab := &namedLab{in: in, client: in.Machine("client"), bal: bal, rd: rd, docs: docs}
	lab.httpc = &http.Client{Transport: &http.Transport{
		DialContext:       lab.dial,
		DisableKeepAlives: true,
	}}
	return lab, nil
}

// dial is the transport's DialContext: the resilient dialer, with a span
// around it in traced runs.
func (lab *namedLab) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	lab.mu.Lock()
	tr, req, parent := lab.tr, lab.req, lab.parent
	lab.mu.Unlock()
	if tr == nil {
		return lab.rd.DialContext(ctx, network, addr)
	}
	w0, v0 := time.Now(), lab.client.Clock.Now()
	s := tr.open("lb.dial", req, parent, v0)
	c, err := lab.rd.DialContext(ctx, network, addr)
	v1 := lab.client.Clock.Now()
	tr.end(s, v1)
	lab.mu.Lock()
	lab.dialWall = append(lab.dialWall, float64(time.Since(w0).Nanoseconds())/1e3)
	lab.dialVirt = append(lab.dialVirt, v1.Sub(v0).Micros())
	lab.lastDial = v1.Sub(v0)
	lab.mu.Unlock()
	return c, err
}

// phase is what a stretch of closed-loop GETs produced.
type phase struct {
	ops, attempted   int
	bytes            int64
	wall             time.Duration
	wallLat, virtLat []float64
	// cuts are the indexes of wallLat where each second of the stretch
	// began after the first.
	cuts       []int
	exchVirt   []float64
	violations tally
}

// windows splits the wall latencies into the stretch's seconds.
func (p *phase) windows() [][]float64 {
	var out [][]float64
	from := 0
	for _, to := range append(p.cuts, len(p.wallLat)) {
		out = append(out, p.wallLat[from:to])
		from = to
	}
	return out
}

// get performs one GET of path and checks the answer.
func (lab *namedLab) get(p *phase, id uint64, path string) {
	p.attempted++
	w0, v0 := time.Now(), lab.client.Clock.Now()
	root := lab.tr.open("named_get.request", id, 0, v0)
	call := lab.tr.open("nethttp.get", id, spanID(root), v0)
	lab.mu.Lock()
	lab.req, lab.parent, lab.lastDial = id, spanID(call), 0
	lab.mu.Unlock()
	resp, err := lab.httpc.Get("http://app.spin.test" + path)
	vGot := lab.client.Clock.Now()
	lab.tr.end(call, vGot)
	if err != nil {
		p.violations.add("named_get.get_error", 1)
		return
	}
	body := lab.tr.open("nethttp.body", id, spanID(root), vGot)
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	v1 := lab.client.Clock.Now()
	lab.tr.end(body, v1)
	lab.tr.end(root, v1)
	switch {
	case err != nil:
		p.violations.add("named_get.body_read", 1)
	case resp.StatusCode != http.StatusOK:
		p.violations.add("named_get.status", 1)
	case !bytes.Equal(data, lab.docs[path]):
		p.violations.add("named_get.body_mismatch", 1)
	default:
		p.ops++
		p.bytes += int64(len(data))
		p.wallLat = append(p.wallLat, float64(time.Since(w0).Nanoseconds())/1e3)
		p.virtLat = append(p.virtLat, v1.Sub(v0).Micros())
		if lab.tr != nil {
			lab.mu.Lock()
			p.exchVirt = append(p.exchVirt, (vGot.Sub(v0) - lab.lastDial).Micros())
			lab.mu.Unlock()
		}
	}
}

// spanID is s's id, 0 for the untraced run's nil span.
func spanID(s *span) uint64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// loop runs GETs until dur has passed (or exactly n GETs when n > 0),
// choosing paths from rng, and numbering requests from *next.
func (lab *namedLab) loop(dur time.Duration, n int, rng *rand.Rand, next *uint64) phase {
	var p phase
	start := time.Now()
	second := start
	for i := 0; n > 0 && i < n || n == 0 && time.Since(start) < dur; i++ {
		if time.Since(second) >= time.Second {
			p.cuts = append(p.cuts, len(p.wallLat))
			second = time.Now()
		}
		*next++
		lab.get(&p, *next, lab.paths[rng.IntN(len(lab.paths))])
	}
	p.wall = time.Since(start)
	return p
}

// finish drains the topology and checks that no connection is left. The
// transport closes a finished connection on its own goroutine, so the
// check retries briefly before it counts a leak.
func (lab *namedLab) finish(v func(string, int)) {
	lab.httpc.CloseIdleConnections()
	left := 0
	for try := 0; try < 50; try++ {
		lab.in.Driver().Drain()
		left = 0
		for _, name := range lab.in.Machines() {
			left += lab.in.Machine(name).Stack.TCP().Conns()
		}
		if left == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	v("named_get.conns_left", left)
}

func runNamedGet(seed uint64, cfg config) (*report, error) {
	r := newReport("named_get", seed)
	docs, paths := namedDocuments(seed)
	base := liveHeap()
	var setups []float64
	var lab *namedLab
	for i := 0; i < namedSetups; i++ {
		lab = nil
		runtime.GC() // each setup starts from a collected heap
		t0 := time.Now()
		l, err := buildNamed(seed, docs)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		lab = l
	}
	lab.paths = paths
	heapKB := heapPerMachineKB(base, len(lab.in.Machines()))
	rng := rand.New(rand.NewPCG(seed, 0x67657473))
	var next uint64

	// Warm up (heap growth, goroutine stacks, first-touch page faults)
	// before anything is timed.
	warm := lab.loop(namedWarmup(cfg), 0, rng, &next)
	r.absorb(warm.attempted, warm.violations)

	if !cfg.trace {
		p := lab.loop(cfg.seconds, 0, rng, &next)
		lab.finish(r.violate)
		r.absorb(p.attempted, p.violations)
		r.set("req_per_s", float64(p.ops)/p.wall.Seconds(), "1/s", fmt.Sprintf("%d GETs in %.2fs", p.ops, p.wall.Seconds()))
		r.set("goodput_wall_MBps", float64(p.bytes)/p.wall.Seconds()/1e6, "MB/s", fmt.Sprintf("%d body bytes", p.bytes))
		r.setWall(p.windows())
		r.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d setups", len(setups)))
		r.set("heap_kb_per_machine", heapKB, "KB", fmt.Sprintf("%d machines", len(lab.in.Machines())))
		return r, nil
	}

	// Traced run: an untraced stretch for the overhead baseline, then the
	// traced stretch whose counters, spans and CPU profile make the ledger.
	l := ledger{}
	plain := lab.loop(cfg.seconds/3, 0, rng, &next)
	tr := newTracer()
	lab.mu.Lock()
	lab.tr = tr
	lab.mu.Unlock()
	c0 := readCounters(lab.in)
	req0, att0, ret0, fo0 := lab.rd.Stats()
	var p phase
	tr.measure(func() { p = lab.loop(cfg.seconds-cfg.seconds/3, 0, rng, &next) })
	if tr.profErr != nil {
		return nil, tr.profErr
	}
	lab.mu.Lock()
	lab.tr = nil
	lab.mu.Unlock()
	lab.finish(r.violate)
	c := readCounters(lab.in).since(c0)
	req1, att1, ret1, fo1 := lab.rd.Stats()
	r.absorb(plain.attempted, plain.violations)
	r.absorb(p.attempted, p.violations)
	ops := float64(p.ops)
	l.fromCounters(c, ops)
	l.fromTracer(tr, ops)
	l.virtual(p.virtLat)
	l["wall_p99_us"] = wallTail(plain.windows())
	l["nethttp.exchange_virt_p50_us"] = summarize(p.exchVirt).P50
	lab.mu.Lock()
	l["lb.dial_wall_p50_us"] = summarize(lab.dialWall).P50
	l["lb.dial_virt_p50_us"] = summarize(lab.dialVirt).P50
	lab.mu.Unlock()
	l["lb.attempts_per_req"] = ratio(float64(att1-att0), float64(req1-req0))
	l["lb.retries"] = float64(ret1 - ret0)
	l["lb.failovers"] = float64(fo1 - fo0)
	l["lb.backend_spread"] = backendSpread(lab.bal)
	l["sim.engines"] = float64(len(lab.in.Cluster().Engines()))
	l["fail_ratio"] = ratio(float64(r.Failed), float64(r.Attempted))
	l["trace.overhead_ratio"] = ratio(float64(plain.ops)/plain.wall.Seconds(), ops/p.wall.Seconds())

	// named_get is exempt from the replay check (the Driver replays byte-
	// identically only while one goroutine blocks at a time, and net/http
	// runs two per connection); it records agreement and drift instead.
	fps, drift, err := namedReplay(seed, docs, paths)
	if err != nil {
		return nil, err
	}
	if fps[0] != fps[1] {
		l["replay.mismatches"] = 1
	}
	l["replay.virt_drift"] = drift
	l.emit(r)
	path, err := tr.write(cfg.outDir, traceFile{
		Workload: "named_get", Seed: seed,
		Fingerprints: []string{fmt.Sprintf("%#x", fps[0]), fmt.Sprintf("%#x", fps[1])},
		Counters:     c, Ledger: l,
	})
	if err != nil {
		return nil, err
	}
	r.traceOut = path
	return r, nil
}

// namedReplay runs the same fixed GET sequence on two fresh topologies at
// one seed and returns their fingerprints and the relative drift of the
// virtual median.
func namedReplay(seed uint64, docs netstack.ContentMap, paths []string) ([2]uint64, float64, error) {
	var fps [2]uint64
	var p50 [2]float64
	for i := range fps {
		lab, err := buildNamed(seed, docs)
		if err != nil {
			return fps, 0, err
		}
		lab.paths = paths
		var next uint64
		p := lab.loop(0, namedReplayGets, rand.New(rand.NewPCG(seed, 0x67657473)), &next)
		lab.finish(func(string, int) {})
		fps[i] = lab.in.Fingerprint()
		p50[i] = summarize(p.virtLat).P50
	}
	return fps, ratio(abs(p50[1]-p50[0]), p50[0]), nil
}

// backendSpread is (max-min)/mean of the per-replica success counts.
func backendSpread(bal *lb.Balancer) float64 {
	var lo, hi, sum float64
	members := bal.Members()
	for i, m := range members {
		s := float64(bal.Successes(m))
		if i == 0 || s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
		sum += s
	}
	return ratio(hi-lo, sum/float64(max(len(members), 1)))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
