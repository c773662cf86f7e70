package sim

import "testing"

// BenchmarkClusterStep measures the real (wall-clock) cost of one cluster
// step over 39 engines — the engine count of a 32-host fat tree with its
// switches and coordinator. Every event schedules its successor on a
// pseudo-randomly chosen engine a short wire delay later, so each step
// pays for picking the global minimum, popping the event and pushing a
// new one (including its allocation). The cluster-step-ns metric is gated
// by scripts/bench_smoke.sh against BENCH_baseline.json.
func BenchmarkClusterStep(b *testing.B) {
	const engines = 39
	es := make([]*Engine, engines)
	c := NewCluster()
	for i := range es {
		es[i] = NewEngine()
		c.Add(es[i])
	}
	rng := NewRand(1)
	handlers := make([]func(), engines)
	for i := range handlers {
		from := es[i]
		handlers[i] = func() {
			to := rng.Intn(engines)
			es[to].At(from.Now().Add(Duration(1000+rng.Intn(4000))), handlers[to])
		}
	}
	// Two events in flight per engine.
	for i := 0; i < 2*engines; i++ {
		es[i%engines].At(Time(rng.Intn(5000)), handlers[i%engines])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Step() {
			b.Fatal("cluster drained")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "cluster-step-ns")
}
