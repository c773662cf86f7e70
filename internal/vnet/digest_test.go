package vnet

import (
	"testing"

	"spin/internal/sim"
)

// TestHashBytesSensitivity pins the replay digest's per-frame hash: for
// every frame length up to 1600 bytes (covering every tail length modulo
// the 32-byte stripe), flipping any single bit at any position changes
// hashBytes, and so does appending one zero byte. A -race build sweeps
// lengths up to 96 only, still every tail length three times over: the
// hash shares no state, so the race detector has nothing to find here.
func TestHashBytesSensitivity(t *testing.T) {
	maxLen := 1600
	if raceEnabled {
		maxLen = 96
	}
	rng := sim.NewRand(1)
	buf := make([]byte, maxLen+1)
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
	for n := 0; n <= maxLen; n++ {
		b := buf[:n]
		base := hashBytes(b)
		for i := range b {
			for bit := uint(0); bit < 8; bit++ {
				b[i] ^= 1 << bit
				h := hashBytes(b)
				b[i] ^= 1 << bit
				if h == base {
					t.Fatalf("len %d: flipping bit %d of byte %d left the hash at %#x", n, bit, i, base)
				}
			}
		}
		saved := buf[n]
		buf[n] = 0
		if hashBytes(buf[:n+1]) == base {
			t.Fatalf("len %d: appending a zero byte left the hash at %#x", n, base)
		}
		buf[n] = saved
	}
}

// BenchmarkFrameDigest measures the real (wall-clock) cost of folding one
// 1500-byte frame and its arrival time into a link digest — the work
// half.deliver does for every delivered frame. Gated by
// scripts/bench_smoke.sh against BENCH_baseline.json (frame-digest-ns, and
// zero allocations).
func BenchmarkFrameDigest(b *testing.B) {
	frame := make([]byte, 1500)
	for i := range frame {
		frame[i] = byte(i*7 + 11)
	}
	var digest uint64
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digest = mix64(digest ^ hashBytes(frame) ^ uint64(i))
	}
	b.StopTimer()
	if digest == 0 {
		b.Log("zero digest")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "frame-digest-ns")
}
