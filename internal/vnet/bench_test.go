package vnet

import (
	"runtime"
	"testing"

	"spin/internal/netstack"
	"spin/internal/sim"
)

// BenchmarkVnetHop measures the real (wall-clock) cost of one link
// traversal in a switched topology: UDP datagrams from h0 to h1 through
// s0, two hops each. The vnet-hop-ns metric is the simulator's per-hop
// overhead — what bounds how large a topology and how much traffic a
// wall-clock second of testing can cover. Frames travel as posted events to
// the switch port and NIC, so a hop allocates nothing. Both vnet-hop-ns and
// allocs/op are gated by scripts/bench_smoke.sh against BENCH_baseline.json.
func BenchmarkVnetHop(b *testing.B) {
	in, err := Star(2, LinkModel{Latency: 50 * sim.Microsecond}, 1)
	if err != nil {
		b.Fatal(err)
	}
	h0 := in.Machine("h0")
	dst := in.IP("h1")
	got := 0
	in.Machine("h1").Stack.UDP().Bind(9, nil, func(*netstack.Packet) { got++ })
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h0.Stack.UDP().Send(100, dst, 9, payload); err != nil {
			b.Fatal(err)
		}
		in.Run(0)
	}
	b.StopTimer()
	if got != b.N {
		b.Fatalf("delivered %d of %d datagrams", got, b.N)
	}
	// Two link hops per datagram (h0->s0, s0->h1).
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2), "vnet-hop-ns")
}

// BenchmarkIdleMachineHeap measures what an idle machine costs the host:
// the live heap of a freshly built 64-machine star (no traffic), divided
// by its machine count. Every stack, its connection table, its physical
// memory model and its share of the switch are in the figure. Gated by
// scripts/bench_smoke.sh against BENCH_baseline.json.
func BenchmarkIdleMachineHeap(b *testing.B) {
	const machines = 64
	var kb float64
	for i := 0; i < b.N; i++ {
		before := liveHeap()
		in, err := Star(machines, LinkModel{Latency: 50 * sim.Microsecond}, 1)
		if err != nil {
			b.Fatal(err)
		}
		kb = float64(liveHeap()-before) / 1024 / machines
		runtime.KeepAlive(in)
	}
	b.ReportMetric(kb, "idle-machine-heap-kb")
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
