package spin_test

// Benchmarks: one testing.B target per table and figure of the paper's
// evaluation. Each runs the same experiment as cmd/spin-bench and reports
// the headline measured values as custom metrics (in the paper's units), so
// `go test -bench=. -benchmem` regenerates the evaluation in benchmark
// form. Virtual-time results are deterministic; ns/op measures the host
// cost of running the simulation, not the paper's metric.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"spin/internal/bcode"
	"spin/internal/bench"
	"spin/internal/dispatch"
	"spin/internal/fs"
	"spin/internal/netstack"
	"spin/internal/sal"
	"spin/internal/sim"
	"spin/internal/trace"
	"spin/internal/vnet"
)

// runExperiment executes one experiment per benchmark iteration and reports
// selected row/column cells as custom metrics.
func runExperiment(b *testing.B, id string, metrics func(*bench.Table, *testing.B)) {
	b.Helper()
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var last *bench.Table
	for i := 0; i < b.N; i++ {
		t, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if metrics != nil && last != nil {
		metrics(last, b)
	}
}

// cell fetches a measured value by row label and column index.
func cell(t *bench.Table, label string, col int) float64 {
	for _, r := range t.Rows {
		if r.Label == label && col < len(r.Measured) {
			return r.Measured[col]
		}
	}
	return -1
}

func BenchmarkTable1SystemSize(b *testing.B) {
	runExperiment(b, "table1", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, "total kernel", 0), "total-lines")
	})
}

func BenchmarkTable2ProtectedCommunication(b *testing.B) {
	runExperiment(b, "table2", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, "Protected in-kernel call", 2), "spin-inkernel-µs")
		b.ReportMetric(cell(t, "System call", 2), "spin-syscall-µs")
		b.ReportMetric(cell(t, "Cross-address space call", 2), "spin-xas-µs")
		b.ReportMetric(cell(t, "Cross-address space call", 0), "osf-xas-µs")
	})
}

func BenchmarkTable3Threads(b *testing.B) {
	runExperiment(b, "table3", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, "Fork-Join", 4), "spin-kern-forkjoin-µs")
		b.ReportMetric(cell(t, "Ping-Pong", 4), "spin-kern-pingpong-µs")
		b.ReportMetric(cell(t, "Fork-Join", 6), "spin-integrated-forkjoin-µs")
	})
}

func BenchmarkTable4VM(b *testing.B) {
	runExperiment(b, "table4", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, "Fault", 2), "spin-fault-µs")
		b.ReportMetric(cell(t, "Trap", 2), "spin-trap-µs")
		b.ReportMetric(cell(t, "Prot100", 2), "spin-prot100-µs")
		b.ReportMetric(cell(t, "Fault", 0), "osf-fault-µs")
	})
}

func BenchmarkTable5Networking(b *testing.B) {
	runExperiment(b, "table5", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, "Ethernet", 1), "spin-ether-rtt-µs")
		b.ReportMetric(cell(t, "ATM", 1), "spin-atm-rtt-µs")
		b.ReportMetric(cell(t, "ATM", 3), "spin-atm-bw-mbps")
		b.ReportMetric(cell(t, "ATM", 2), "osf-atm-bw-mbps")
	})
}

func BenchmarkTable6Forwarding(b *testing.B) {
	runExperiment(b, "table6", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, "Ethernet", 1), "spin-tcp-fwd-µs")
		b.ReportMetric(cell(t, "Ethernet", 0), "osf-tcp-fwd-µs")
		b.ReportMetric(cell(t, "ATM", 3), "spin-udp-fwd-atm-µs")
	})
}

func BenchmarkTable7ExtensionSizes(b *testing.B) {
	runExperiment(b, "table7", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, "TCP", 0), "tcp-ext-lines")
		b.ReportMetric(cell(t, "HTTP", 0), "http-ext-lines")
	})
}

func BenchmarkFig5ProtocolGraph(b *testing.B) {
	runExperiment(b, "fig5", nil)
}

func BenchmarkFig6VideoServer(b *testing.B) {
	runExperiment(b, "fig6", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, "14 clients", 0), "spin-14cli-cpu-pct")
		b.ReportMetric(cell(t, "14 clients", 1), "osf-14cli-cpu-pct")
	})
}

func BenchmarkDispatcherScaling(b *testing.B) {
	runExperiment(b, "dispatcher", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, "baseline (no extra handlers)", 0), "rtt-base-µs")
		b.ReportMetric(cell(t, "+50 guards, all false", 0), "rtt-50false-µs")
		b.ReportMetric(cell(t, "+50 guards, all true", 0), "rtt-50true-µs")
	})
}

// benchmarkDispatchRaiseParallel measures Raise throughput under contention:
// GOMAXPROCS goroutines raising round-robin across nEvents distinct events,
// each with a single unguarded primary (the paper's direct-call fast path).
// With the copy-on-write snapshot dispatcher, raises of unrelated events
// share no lock, so multi-event throughput should scale with GOMAXPROCS
// rather than serialize on a dispatcher-wide mutex.
func benchmarkDispatchRaiseParallel(b *testing.B, nEvents int) {
	eng := sim.NewEngine()
	d := dispatch.New(eng, &sim.SPINProfile)
	names := make([]string, nEvents)
	for i := range names {
		names[i] = fmt.Sprintf("Bench.Event%d", i)
		if err := d.Define(names[i], dispatch.DefineOptions{
			Primary: func(_, _ any) any { return nil },
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			d.Raise(names[i%nEvents], i)
			i++
		}
	})
}

func BenchmarkDispatchRaiseParallel1(b *testing.B)  { benchmarkDispatchRaiseParallel(b, 1) }
func BenchmarkDispatchRaiseParallel8(b *testing.B)  { benchmarkDispatchRaiseParallel(b, 8) }
func BenchmarkDispatchRaiseParallel64(b *testing.B) { benchmarkDispatchRaiseParallel(b, 64) }

// BenchmarkDispatchRaiseTraced measures the fast path with tracing ENABLED:
// each raise publishes a ring record and feeds two histograms. Compare
// against BenchmarkDispatchRaiseParallel1 (tracing disabled — the nil-load
// path) for the per-raise tracing overhead; ARCHITECTURE.md cites both.
func BenchmarkDispatchRaiseTraced(b *testing.B) {
	eng := sim.NewEngine()
	d := dispatch.New(eng, &sim.SPINProfile)
	if err := d.Define("Bench.Traced", dispatch.DefineOptions{
		Primary: func(_, _ any) any { return nil },
	}); err != nil {
		b.Fatal(err)
	}
	d.SetTracer(trace.New(4096))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			d.Raise("Bench.Traced", i)
			i++
		}
	})
}

// BenchmarkDispatchRaiseGuarded exercises the slow path (guard walk) under
// parallel raises of one heavily guarded event.
func BenchmarkDispatchRaiseGuarded(b *testing.B) {
	eng := sim.NewEngine()
	d := dispatch.New(eng, &sim.SPINProfile)
	if err := d.Define("Bench.Guarded", dispatch.DefineOptions{
		Primary: func(_, _ any) any { return nil },
	}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		want := i
		_, err := d.Install("Bench.Guarded", func(_, _ any) any { return nil },
			dispatch.InstallOptions{Guard: func(arg any) bool { return arg.(int)%8 == want }})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			d.Raise("Bench.Guarded", i)
			i++
		}
	})
}

func BenchmarkGCImpact(b *testing.B) {
	runExperiment(b, "gc", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, "protected in-kernel call", 0), "call-gc-on-µs")
		b.ReportMetric(cell(t, "protected in-kernel call", 1), "call-gc-off-µs")
	})
}

func BenchmarkHTTPServer(b *testing.B) {
	runExperiment(b, "http", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, "cached document", 0), "spin-cached-ms")
		b.ReportMetric(cell(t, "cached document", 1), "osf-cached-ms")
	})
}

func BenchmarkAblation(b *testing.B) {
	runExperiment(b, "ablation", func(t *bench.Table, b *testing.B) {
		b.ReportMetric(cell(t, "co-location: VM fault handling", 0), "fault-inkernel-µs")
		b.ReportMetric(cell(t, "co-location: VM fault handling", 1), "fault-crossas-µs")
		b.ReportMetric(cell(t, "keyed-guard index, 50 handlers", 0), "keyed-µs")
		b.ReportMetric(cell(t, "keyed-guard index, 50 handlers", 1), "linear-µs")
	})
}

// benchmarkParallelRX measures aggregate receive throughput with nics
// simulated NICs, each drained by its own RX worker goroutine: producers
// inject UDP datagrams round-robin across the per-NIC bounded queues
// (retrying through backpressure) and the run ends once the in-kernel sink
// has consumed every datagram. The receive path is lock-free (COW port and
// route tables, sharded reassembly, atomic counters), so with GOMAXPROCS >=
// nics aggregate throughput should scale with the worker count; on a single
// CPU the variants measure the bounded-queue overhead instead.
func benchmarkParallelRX(b *testing.B, nics int) {
	eng := sim.NewEngine()
	prof := &sim.SPINProfile
	d := dispatch.New(eng, prof)
	ic := sal.NewInterruptController(eng, prof)
	st, err := netstack.NewStack("bench", netstack.Addr(10, 0, 0, 1), eng, prof, d)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nics; i++ {
		// Inject-only NICs: never connected, never interrupt-driven.
		st.Attach(sal.NewNIC(sal.LanceModel, eng, ic, sal.VecNIC0))
	}
	sink, err := st.UDP().Sink(9, netstack.InKernelDelivery)
	if err != nil {
		b.Fatal(err)
	}
	st.StartRXWorkers()
	defer st.StopRXWorkers()

	var producer atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := int(producer.Add(1)-1) % nics
		// The receive path never writes to a plain UDP packet, so one
		// packet per producer rides every injection.
		pkt := &netstack.Packet{
			Src: netstack.Addr(10, 0, 0, 2), Dst: netstack.Addr(10, 0, 0, 1),
			Proto: netstack.ProtoUDP, SrcPort: 1, DstPort: 9,
			Payload: make([]byte, 32), TTL: 32,
		}
		for pb.Next() {
			for !st.InjectRX(n, pkt) {
				runtime.Gosched()
			}
		}
	})
	// Throughput includes the drain: the run isn't over until the sink has
	// consumed everything injected.
	for sink.Packets() < int64(b.N) {
		runtime.Gosched()
	}
	b.StopTimer()
	if got := sink.Packets(); got != int64(b.N) {
		b.Fatalf("sink = %d packets, want %d", got, b.N)
	}
}

func BenchmarkParallelRX1(b *testing.B) { benchmarkParallelRX(b, 1) }
func BenchmarkParallelRX2(b *testing.B) { benchmarkParallelRX(b, 2) }
func BenchmarkParallelRX4(b *testing.B) { benchmarkParallelRX(b, 4) }

// benchmarkParallelStrands runs the standard 64-strand batch (all homed on
// CPU 0 — spreading is pure work stealing) on n virtual CPUs and reports
// virtual-time throughput. The scaling measured is virtual: each CPU has
// its own clock, so the batch's makespan shrinks with CPUs even on a
// one-core host.
func benchmarkParallelStrands(b *testing.B, cpus int) {
	var last bench.ParallelResult
	for i := 0; i < b.N; i++ {
		res, err := bench.MeasureParallelStrands(cpus)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Throughput, "iters/vms")
	b.ReportMetric(last.Makespan.Micros(), "makespan-µs")
	b.ReportMetric(float64(last.Steals), "steals")
}

func BenchmarkParallelStrands1(b *testing.B) { benchmarkParallelStrands(b, 1) }
func BenchmarkParallelStrands2(b *testing.B) { benchmarkParallelStrands(b, 2) }
func BenchmarkParallelStrands4(b *testing.B) { benchmarkParallelStrands(b, 4) }
func BenchmarkParallelStrands8(b *testing.B) { benchmarkParallelStrands(b, 8) }

// --- C10M: connection scaling and steady-state RX -------------------------

// benchmarkConnScaling runs one MeasureConnScaling sweep of n connections
// per iteration and reports per-connection setup cost and heap.
func benchmarkConnScaling(b *testing.B, n int) {
	var last bench.ConnScaleResult
	for i := 0; i < b.N; i++ {
		res, err := bench.MeasureConnScaling(n)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.SetupNsPerConn, "conn-setup-ns")
	b.ReportMetric(last.BytesPerConn, "B/conn")
	b.ReportMetric(float64(last.Conns), "conns")
}

// BenchmarkMillionConns holds 2^20 concurrent established connections in
// one stack — the C10M scaling claim. Setup cost must stay O(1) in table
// size: an insert copies one shard of ~8 entries on average, never the
// table, and the table's doublings move each entry about once on average
// (compare BenchmarkTCPConnSetup at 1/16 the size; residual growth is GC
// mark work over the live heap, not table copying).
func BenchmarkMillionConns(b *testing.B) { benchmarkConnScaling(b, 1<<20) }

// BenchmarkTCPConnSetup is the smoke-gated setup-cost probe: small enough
// to run in CI, same code path as BenchmarkMillionConns.
func BenchmarkTCPConnSetup(b *testing.B) { benchmarkConnScaling(b, 1<<16) }

// --- Naming and sockets: resolve + dial latency ---------------------------

// namedBenchStar builds the 3-machine named-service star used by the DNS and
// dial benchmarks: client, nameserver, and web server around one switch with
// 200µs edges.
func namedBenchStar(b *testing.B) *vnet.Internet {
	b.Helper()
	edge := vnet.LinkModel{Latency: 200 * sim.Microsecond}
	in, err := vnet.NewBuilder(1).
		Machine("web", 0).
		Machine("client", 0).
		Machine("ns", 0).
		Switch("s0").
		Link("web", "s0", edge).
		Link("client", "s0", edge).
		Link("ns", "s0", edge).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	if err := in.EnableDNS("ns"); err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkDNSResolve measures an uncached hostname resolution across the
// star: query out, authoritative answer back. The reported dns-resolve-ns is
// VIRTUAL latency — deterministic, so the smoke gate can hold it to a tight
// bound; ns/op is the host cost of simulating it.
func BenchmarkDNSResolve(b *testing.B) {
	in := namedBenchStar(b)
	client := in.Machine("client")
	var virt sim.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.Resolver.FlushCache()
		done := false
		start := client.Clock.Now()
		client.Resolver.LookupA("web.spin.test", func(_ []netstack.IPAddr, err error) {
			if err != nil {
				b.Error(err)
			}
			done = true
		})
		if !in.RunUntil(func() bool { return done }, 0) {
			b.Fatal("resolve hung")
		}
		virt = client.Clock.Now().Sub(start)
	}
	b.StopTimer()
	b.ReportMetric(float64(virt), "dns-resolve-ns")
}

// BenchmarkDialEstablished measures a socket-layer dial to a listening peer:
// SYN out, SYN|ACK back, Dial returns on the client's transition to
// ESTABLISHED. dial-established-ns is virtual latency, as above.
func BenchmarkDialEstablished(b *testing.B) {
	in := namedBenchStar(b)
	web := in.Machine("web")
	if err := web.Stack.TCP().Listen(80, nil, func(*netstack.Conn) {}); err != nil {
		b.Fatal(err)
	}
	dialer, err := in.Dialer("client")
	if err != nil {
		b.Fatal(err)
	}
	client := in.Machine("client")
	addr := netstack.SockAddr{IP: in.IP("web"), Port: 80}.String()
	var virt sim.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := client.Clock.Now()
		c, err := dialer.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		virt = client.Clock.Now().Sub(start)
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
		in.Driver().Drain() // let the FIN exchange retire the conn
	}
	b.StopTimer()
	b.ReportMetric(float64(virt), "dial-established-ns")
}

// BenchmarkTCPSteadyRX measures steady-state segment delivery on one
// established connection, driven straight into the TCP module. The path —
// shard lookup, state machine, pooled ACK — must run at zero heap
// allocations per packet (the smoke gate fails on any growth).
func BenchmarkTCPSteadyRX(b *testing.B) {
	eng := sim.NewEngine()
	prof := &sim.SPINProfile
	d := dispatch.New(eng, prof)
	st, err := netstack.NewStack("bench", netstack.Addr(10, 0, 0, 1), eng, prof, d)
	if err != nil {
		b.Fatal(err)
	}
	tcp := st.TCP()
	consumed := 0
	if err := tcp.Listen(80, nil, func(c *netstack.Conn) {
		c.OnData = func(_ *netstack.Conn, d []byte) { consumed += len(d) }
	}); err != nil {
		b.Fatal(err)
	}
	pkt := &netstack.Packet{
		Src: netstack.Addr(10, 0, 0, 2), SrcPort: 4000,
		Dst: st.IP, DstPort: 80, Proto: netstack.ProtoTCP,
	}
	pkt.Flags, pkt.Seq, pkt.Window = netstack.FlagSYN, 10, 32*1024
	tcp.Deliver(pkt)
	pkt.Flags, pkt.Seq, pkt.Ack = netstack.FlagACK, 11, 1001
	tcp.Deliver(pkt)
	if tcp.Conns() != 1 {
		b.Fatal("handshake failed")
	}
	payload := make([]byte, 32)
	pkt.Payload = payload
	seq := uint32(11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.Seq = seq
		tcp.Deliver(pkt)
		seq += uint32(len(payload))
	}
	b.StopTimer()
	if consumed != b.N*len(payload) {
		b.Fatalf("consumed %d bytes, want %d", consumed, b.N*len(payload))
	}
}

// benchHost is one machine of the bulk-send benchmark: engine, stack and
// one NIC.
func benchHost(b *testing.B, name string, ip netstack.IPAddr) (*sim.Engine, *netstack.Stack, *sal.NIC) {
	eng := sim.NewEngine()
	prof := &sim.SPINProfile
	ic := sal.NewInterruptController(eng, prof)
	nic := sal.NewNIC(sal.LanceModel, eng, ic, sal.VecNIC0)
	st, err := netstack.NewStack(name, ip, eng, prof, dispatch.New(eng, prof))
	if err != nil {
		b.Fatal(err)
	}
	st.Attach(nic)
	return eng, st, nic
}

// BenchmarkTCPBulkSend measures the host cost of a lossless 1 MB TCP
// transfer between two machines on a point-to-point link: connection
// setup, the transfer, and teardown, per iteration. allocs/seg is heap
// allocations per data segment — what the send queue (bytes copied in
// once, segments copied straight from it into pooled packets) and the
// posted frame hops keep near zero. The smoke gate fails on any growth.
func BenchmarkTCPBulkSend(b *testing.B) {
	const total = 1 << 20
	segs := (total + netstack.DefaultMSS - 1) / netstack.DefaultMSS
	engA, a, nicA := benchHost(b, "a", netstack.Addr(10, 0, 0, 1))
	engB, srv, nicB := benchHost(b, "b", netstack.Addr(10, 0, 0, 2))
	if err := sal.Connect(nicA, nicB); err != nil {
		b.Fatal(err)
	}
	cl := sim.NewCluster(engA, engB)
	received := 0
	if err := srv.TCP().Listen(80, nil, func(c *netstack.Conn) {
		c.OnData = func(_ *netstack.Conn, d []byte) { received += len(d) }
		c.OnClose = func(c *netstack.Conn) { _ = c.Close() }
	}); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var before, after runtime.MemStats
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		received = 0
		conn, err := a.TCP().Connect(srv.IP, 80, nil)
		if err != nil {
			b.Fatal(err)
		}
		conn.OnConnect = func(c *netstack.Conn) { _ = c.Send(payload) }
		if !cl.RunUntil(func() bool { return received == total }, 0) {
			b.Fatalf("transfer stalled at %d of %d bytes", received, total)
		}
		_ = conn.Close()
		cl.Run(0) // FIN exchange and TIME_WAIT retire both ends
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	if n := a.TCP().Conns() + srv.TCP().Conns(); n != 0 {
		b.Fatalf("%d connections left", n)
	}
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*segs), "allocs/seg")
}

// BenchmarkHTTPGetExchange measures one in-kernel HTTP GET of a
// 3,000-byte document between the two hosts of a star, from connect to
// both ends retired: the document is read through the web cache's
// uncached path, so the file system, the HTTP server and client and TCP
// all run per iteration. segments/op counts frames on the client's spoke
// (the smoke gate holds it exact: a duplicate FIN, a stray RST or an
// unpiggybacked ACK changes it) and allocs/op the host allocations (the
// gate fails on any growth).
func BenchmarkHTTPGetExchange(b *testing.B) {
	in, err := vnet.Star(2, vnet.LinkModel{Latency: 50 * sim.Microsecond}, 1)
	if err != nil {
		b.Fatal(err)
	}
	client, server := in.Machine("h0"), in.Machine("h1")
	doc := make([]byte, 3000)
	for i := range doc {
		doc[i] = byte(i * 7)
	}
	if err := server.FS.Create("/doc", doc); err != nil {
		b.Fatal(err)
	}
	// A 1 KB threshold makes the document "large": uncached.
	cache := fs.NewWebCache(server.FS, 64<<10, 1<<10)
	if _, err := netstack.NewHTTPServer(server.Stack, 80, netstack.InKernelDelivery, cache); err != nil {
		b.Fatal(err)
	}
	segs := 0
	in.Link("h0~s0").AddHook(func(*vnet.FrameEvent) vnet.Verdict { segs++; return vnet.Pass })
	got := 0
	done := func(_ string, body []byte) { got = len(body) }
	get := func() {
		err = netstack.HTTPGet(client.Stack, server.Stack.IP, 80, "/doc", netstack.InKernelDelivery, done)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got = 0
		// Start once the server's clock has caught up: draining the last
		// exchange ran it through TIME_WAIT, past the client's.
		client.Engine.At(max(client.Engine.Now(), server.Engine.Now()), get)
		in.Run(0) // the exchange, then TIME_WAIT retires the server's end
		if err != nil {
			b.Fatal(err)
		}
		if got != len(doc) {
			b.Fatalf("got a %d-byte body, want %d", got, len(doc))
		}
	}
	b.StopTimer()
	if n := client.Stack.TCP().Conns() + server.Stack.TCP().Conns(); n != 0 {
		b.Fatalf("%d connections left", n)
	}
	b.ReportMetric(float64(segs)/float64(b.N), "segments/op")
}

// benchFilterProg is the canonical PR-10 packet filter: UDP to the given
// port is dropped, everything else passes. Nine instructions, two context
// loads, both branch directions exercised when the port alternates.
func benchFilterProg(port int32) *bcode.Program {
	return bcode.New(
		bcode.LdCtx(3, netstack.CtxProto),
		bcode.JneImm(3, int32(netstack.ProtoUDP), 3),
		bcode.LdCtx(4, netstack.CtxDstPort),
		bcode.JneImm(4, port, 1),
		bcode.Ja(2),
		bcode.MovImm(0, 0),
		bcode.Exit(),
		bcode.MovImm(0, 1),
		bcode.Exit(),
	)
}

// BenchmarkFilterCompiled measures the compiled (closure) execution of the
// packet filter against a pre-filled context — the per-packet cost every
// attached program adds to the RX path. The smoke gate holds this to zero
// heap allocations per run: the compiler's whole point is that the hot
// path touches only the flat micro-op array and the caller's context.
func BenchmarkFilterCompiled(b *testing.B) {
	prog := benchFilterProg(9)
	if err := bcode.Verify(prog, netstack.PacketSpec); err != nil {
		b.Fatal(err)
	}
	run := prog.Compile()
	var ctx bcode.Context
	ctx.W[netstack.CtxProto] = uint64(netstack.ProtoUDP)
	var drops uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.W[netstack.CtxDstPort] = uint64(8 + i&1) // alternate miss / hit
		drops += run(&ctx)
	}
	b.StopTimer()
	if want := uint64(b.N / 2); drops != want {
		b.Fatalf("drops = %d, want %d", drops, want)
	}
}

// BenchmarkFilterInterpreted runs the same program through the defensive
// reference interpreter — the implementation the differential suite trusts.
// The gap between this and BenchmarkFilterCompiled is the compiler's win.
func BenchmarkFilterInterpreted(b *testing.B) {
	prog := benchFilterProg(9)
	if err := bcode.Verify(prog, netstack.PacketSpec); err != nil {
		b.Fatal(err)
	}
	var ctx bcode.Context
	ctx.W[netstack.CtxProto] = uint64(netstack.ProtoUDP)
	var drops uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.W[netstack.CtxDstPort] = uint64(8 + i&1)
		drops += prog.Run(&ctx)
	}
	b.StopTimer()
	if want := uint64(b.N / 2); drops != want {
		b.Fatalf("drops = %d, want %d", drops, want)
	}
}

// benchmarkRX measures per-packet cost of the full synchronous receive path
// (link, IP, transport, UDP delivery) driven straight into the stack — with
// or without an XDP program attached. The smoke gate requires the filtered
// path to stay within 2x of the bare one, measured in the same run.
func benchmarkRX(b *testing.B, withXDP bool) {
	eng := sim.NewEngine()
	prof := &sim.SPINProfile
	d := dispatch.New(eng, prof)
	st, err := netstack.NewStack("bench", netstack.Addr(10, 0, 0, 1), eng, prof, d)
	if err != nil {
		b.Fatal(err)
	}
	delivered := 0
	if err := st.UDP().Bind(9, netstack.InKernelDelivery, func(*netstack.Packet) {
		delivered++
	}); err != nil {
		b.Fatal(err)
	}
	if withXDP {
		// A pass-everything run of the canonical filter: full program cost,
		// no drops, so both variants deliver identical packet counts.
		if _, err := st.AttachXDP("bench-filter", benchFilterProg(7)); err != nil {
			b.Fatal(err)
		}
	}
	pkt := &netstack.Packet{
		Src: netstack.Addr(10, 0, 0, 2), SrcPort: 4000,
		Dst: st.IP, DstPort: 9, Proto: netstack.ProtoUDP,
		TTL: 64, Payload: make([]byte, 32),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ReceiveOne(pkt)
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("delivered %d packets, want %d", delivered, b.N)
	}
	if withXDP {
		runs, drops := st.XDP().Stats()
		if runs != int64(b.N) || drops != 0 {
			b.Fatalf("xdp runs=%d drops=%d, want runs=%d drops=0", runs, drops, b.N)
		}
	}
}

func BenchmarkRXBare(b *testing.B) { benchmarkRX(b, false) }
func BenchmarkRXXDP(b *testing.B)  { benchmarkRX(b, true) }
