package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"spin/internal/netstack"
	"spin/internal/vnet"
)

// packetEvents are the dispatcher events a received packet raises on its
// way up the stack; the dispatch layer's per-packet cost is read there.
var packetEvents = []string{
	netstack.EvEtherArrived,
	netstack.EvIPArrived,
	netstack.EvICMPArrived,
	netstack.EvUDPArrived,
	netstack.EvTCPArrived,
}

// counters is one reading of every public counter the ledger uses, summed
// over a topology's machines, links and switches, keyed by a short name.
type counters map[string]int64

// readCounters sums the public counters of every node of in. It must run
// while no goroutine is stepping the simulation.
func readCounters(in *vnet.Internet) counters {
	c := counters{}
	for _, name := range in.Machines() {
		m := in.Machine(name)
		st := m.Stack.TCP().Stats()
		c["tcp.accepted"] += st.Accepted
		c["tcp.resets"] += st.Resets
		c["tcp.timed_out"] += st.TimedOut
		c["tcp.half_open_evicted"] += st.HalfOpenEvicted
		c["tcp.conns"] += int64(st.Conns)
		acc, drop := m.Stack.RXStats()
		c["ip.rx_accepted"] += acc
		c["ip.rx_dropped"] += drop
		_, sent := m.Stack.Stats()
		c["ip.sent"] += sent
		for _, nic := range m.NICs() {
			s, _, bs, _ := nic.Stats()
			c["nic.sent"] += s
			c["nic.bytes_sent"] += bs
			c["nic.dropped"] += nic.Dropped()
			c["nic.rx_dropped"] += nic.RXDropped()
		}
		for _, ev := range packetEvents {
			r, a, f := m.Dispatcher.Stats(ev)
			c["dispatch.raises"] += r
			c["dispatch.aborts"] += a
			c["dispatch.faults"] += f
		}
		if m.Resolver != nil {
			rs := m.Resolver.Stats()
			c["dns.lookups"] += rs.Lookups
			c["dns.cache_hits"] += rs.CacheHits + rs.NegativeHits
			c["dns.sent"] += rs.Sent
			c["dns.retries"] += rs.Retries
		}
	}
	for _, name := range in.Links() {
		ab, ba := in.Link(name).Stats()
		c["link.delivered"] += ab.Delivered + ba.Delivered
		c["link.lost"] += ab.Lost + ba.Lost
	}
	for _, name := range in.Switches() {
		f, nr, _ := in.Switch(name).Stats()
		c["switch.forwarded"] += f
		c["switch.no_route"] += nr
	}
	return c
}

// add accumulates o into c: episodic workloads build a fresh topology per
// episode and sum their readings.
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// since is c minus an earlier reading o of the same topology. The
// connection count is a level, not a total, so it keeps c's value.
func (c counters) since(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	d["tcp.conns"] = c["tcp.conns"]
	return d
}

// procSample is the process-level reading taken at the same boundaries:
// wall clock, CPU time, allocations and GC CPU.
type procSample struct {
	wall          time.Time
	cpu           time.Duration
	mallocs       uint64
	allocBytes    uint64
	gcCPU, allCPU float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// procDelta sums the differences between pairs of readings.
type procDelta struct {
	wall, cpu           time.Duration
	mallocs, allocBytes uint64
	gcCPU, allCPU       float64
}

func (d *procDelta) add(a, b procSample) {
	d.wall += b.wall.Sub(a.wall)
	d.cpu += b.cpu - a.cpu
	d.mallocs += b.mallocs - a.mallocs
	d.allocBytes += b.allocBytes - a.allocBytes
	d.gcCPU += b.gcCPU - a.gcCPU
	d.allCPU += b.allCPU - a.allCPU
}

func readProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	return procSample{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCPU:      cpuMetrics[0].Value.Float64(),
		allCPU:     cpuMetrics[1].Value.Float64(),
	}
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapPerMachineKB is the live heap above base, in KB per machine.
func heapPerMachineKB(base uint64, machines int) float64 {
	h := liveHeap()
	if h < base {
		h = base
	}
	return float64(h-base) / 1024 / float64(machines)
}

// layerMetric declares one per-layer figure: the traced run emits every
// one of them on every workload, zero where the workload bypasses the
// layer. BENCHMARK.json's per_layer list must match this one.
type layerMetric struct{ name, unit, better string }

var layerMetrics = []layerMetric{
	{"virt_p50_us", "us", "lower"},
	{"virt_p99_us", "us", "lower"},
	{"wall_p99_us", "us", "lower"},
	{"proc.cpu_util", "ratio", "higher"},
	{"nethttp.exchange_virt_p50_us", "us", "lower"},
	{"lb.dial_wall_p50_us", "us", "lower"},
	{"lb.dial_virt_p50_us", "us", "lower"},
	{"lb.attempts_per_req", "count", "lower"},
	{"lb.retries", "count", "lower"},
	{"lb.failovers", "count", "lower"},
	{"lb.backend_spread", "ratio", "lower"},
	{"dns.lookups", "count", "lower"},
	{"dns.cache_hit_ratio", "ratio", "higher"},
	{"dns.queries_sent", "count", "lower"},
	{"dns.retries", "count", "lower"},
	{"tcp.accepted", "count", "higher"},
	{"tcp.resets_per_req", "count", "lower"},
	{"tcp.timed_out", "count", "lower"},
	{"tcp.half_open_evicted", "count", "lower"},
	{"tcp.retransmits", "count", "lower"},
	{"tcp.retx_ratio", "ratio", "lower"},
	{"tcp.virt_goodput_mbps", "Mb/s", "higher"},
	{"tcp.conns_left", "count", "lower"},
	{"ip.rx_accepted", "count", "higher"},
	{"ip.rx_dropped", "count", "lower"},
	{"fs.webcache_hit_ratio", "ratio", "higher"},
	{"fs.large_reads", "count", "lower"},
	{"fs.buffer_cache_hit_ratio", "ratio", "higher"},
	{"fs.get_wall_ns", "ns", "lower"},
	{"dispatch.raises_per_pkt", "count", "lower"},
	{"dispatch.aborts_per_pkt", "count", "lower"},
	{"dispatch.faults_per_pkt", "count", "lower"},
	{"bcode.runs", "count", "lower"},
	{"bcode.matched", "count", "lower"},
	{"bcode.quarantined", "count", "lower"},
	{"vnet.frames_per_req", "count", "lower"},
	{"vnet.frame_bytes", "B", "lower"},
	{"vnet.lost", "count", "lower"},
	{"vnet.switch_forwarded", "count", "lower"},
	{"vnet.no_route", "count", "lower"},
	{"sal.nic_sent", "count", "lower"},
	{"sal.nic_dropped", "count", "lower"},
	{"sal.nic_rx_dropped", "count", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.events_per_req", "count", "lower"},
	{"sim.engines", "count", "lower"},
	{"runtime.allocs_per_req", "count", "lower"},
	{"runtime.bytes_per_req", "B", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"cpu.sim", "ratio", "lower"},
	{"cpu.vnet", "ratio", "lower"},
	{"cpu.sal", "ratio", "lower"},
	{"cpu.netstack", "ratio", "lower"},
	{"cpu.dispatch", "ratio", "lower"},
	{"cpu.bcode", "ratio", "lower"},
	{"cpu.lb", "ratio", "lower"},
	{"cpu.fs", "ratio", "lower"},
	{"cpu.nethttp", "ratio", "lower"},
	{"cpu.runtime.gc", "ratio", "lower"},
	{"cpu.runtime.sched", "ratio", "lower"},
	{"cpu.other", "ratio", "lower"},
	{"fail_ratio", "ratio", "lower"},
	{"replay.mismatches", "count", "lower"},
	{"replay.virt_drift", "ratio", "lower"},
	{"trace.spans", "count", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"samples.ops", "count", "higher"},
}

// ledger is the per-layer half of a traced run: workloads fill what they
// exercise and the rest is reported as zero.
type ledger map[string]float64

// fromCounters fills the layers every workload reads the same way.
func (l ledger) fromCounters(c counters, ops float64) {
	f := func(k string) float64 { return float64(c[k]) }
	l["tcp.accepted"] = f("tcp.accepted")
	l["tcp.resets_per_req"] = ratio(f("tcp.resets"), ops)
	l["tcp.timed_out"] = f("tcp.timed_out")
	l["tcp.half_open_evicted"] = f("tcp.half_open_evicted")
	l["tcp.conns_left"] = f("tcp.conns")
	l["ip.rx_accepted"] = f("ip.rx_accepted")
	l["ip.rx_dropped"] = f("ip.rx_dropped")
	l["dispatch.raises_per_pkt"] = ratio(f("dispatch.raises"), f("ip.rx_accepted"))
	l["dispatch.aborts_per_pkt"] = ratio(f("dispatch.aborts"), f("ip.rx_accepted"))
	l["dispatch.faults_per_pkt"] = ratio(f("dispatch.faults"), f("ip.rx_accepted"))
	l["vnet.frames_per_req"] = ratio(f("link.delivered"), ops)
	l["vnet.frame_bytes"] = ratio(f("nic.bytes_sent"), f("nic.sent"))
	l["vnet.lost"] = f("link.lost")
	l["vnet.switch_forwarded"] = f("switch.forwarded")
	l["vnet.no_route"] = f("switch.no_route")
	l["sal.nic_sent"] = f("nic.sent")
	l["sal.nic_dropped"] = f("nic.dropped")
	l["sal.nic_rx_dropped"] = f("nic.rx_dropped")
	l["dns.lookups"] = f("dns.lookups")
	l["dns.cache_hit_ratio"] = ratio(f("dns.cache_hits"), f("dns.lookups"))
	l["dns.queries_sent"] = f("dns.sent")
	l["dns.retries"] = f("dns.retries")
	l["sim.events"] = f("sim.events")
	l["sim.events_per_req"] = ratio(f("sim.events"), ops)
	l["fs.webcache_hit_ratio"] = ratio(f("fs.hits"), f("fs.hits")+f("fs.misses")+f("fs.large_reads"))
	l["fs.large_reads"] = f("fs.large_reads")
	l["fs.buffer_cache_hit_ratio"] = ratio(f("fs.bcache_hits"), f("fs.bcache_hits")+f("fs.bcache_misses"))
	l["fs.get_wall_ns"] = ratio(f("fs.get_ns"), f("fs.gets"))
	l["bcode.runs"] = f("bcode.runs")
	l["bcode.matched"] = f("bcode.matched")
	l["bcode.quarantined"] = f("bcode.quarantined")
	l["tcp.retransmits"] = f("tcp.retx")
	l["tcp.retx_ratio"] = ratio(f("tcp.retx"), f("tcp.segments"))
	l["tcp.virt_goodput_mbps"] = ratio(f("bulk.bytes")*8/1e6, f("bulk.virt_ns")/1e9)
}

// virtual fills the virtual-time latency of the workload's operations:
// the modeled kernel's answer, which replays exactly at one seed.
func (l ledger) virtual(virtLat []float64) {
	d := summarize(append([]float64(nil), virtLat...))
	l["virt_p50_us"], l["virt_p99_us"] = d.P50, d.Tail
}

// fromTracer fills the process-level and CPU layers of the traced stretches.
func (l ledger) fromTracer(t *tracer, ops float64) {
	d := t.proc
	l["proc.cpu_util"] = ratio(float64(d.cpu), float64(d.wall))
	l["runtime.allocs_per_req"] = ratio(float64(d.mallocs), ops)
	l["runtime.bytes_per_req"] = ratio(float64(d.allocBytes), ops)
	l["runtime.gc_cpu_fraction"] = ratio(d.gcCPU, d.allCPU)
	l["samples.ops"] = ops
	for layer, share := range t.shares() {
		l["cpu."+layer] = share
	}
	l["trace.spans"] = float64(t.count())
}

// emit copies every declared per-layer metric into r.
func (l ledger) emit(r *report) {
	for _, m := range layerMetrics {
		r.set(m.name, l[m.name], m.unit, "")
	}
}
