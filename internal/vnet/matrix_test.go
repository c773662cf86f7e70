package vnet

import (
	"fmt"
	"testing"

	"spin/internal/netstack"
	"spin/internal/sim"
)

// TestConversationMatrix sweeps the default matrix — loss × reorder ×
// partition × machine count, 14 cells — and requires every transfer in
// every cell to complete byte-exactly. Each cell also replays: running it
// twice must reproduce the same fingerprint.
func TestConversationMatrix(t *testing.T) {
	matrix := DefaultMatrix()
	if len(matrix) < 12 {
		t.Fatalf("matrix has %d cells, want >= 12", len(matrix))
	}
	for _, cfg := range matrix {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			results, fp, err := RunMatrixCell(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != cfg.Conversations {
				t.Fatalf("got %d results, want %d", len(results), cfg.Conversations)
			}
			for _, r := range results {
				if !r.Complete {
					t.Errorf("%s->%s:%d incomplete (%d bytes)", r.From, r.To, r.Port, r.Received)
				}
				if r.Corrupt {
					t.Errorf("%s->%s:%d corrupted", r.From, r.To, r.Port)
				}
			}
			// Lossy and partitioned cells must actually have hurt.
			if cfg.Loss > 0 || cfg.Partition {
				var retx int64
				for _, r := range results {
					retx += r.Retransmits
				}
				if retx == 0 {
					t.Error("adverse cell saw zero retransmissions — faults not exercised")
				}
			}
			// Replay: the same cell reruns to the same fingerprint.
			if _, fp2, err := RunMatrixCell(cfg); err != nil {
				t.Fatalf("replay: %v", err)
			} else if fp2 != fp {
				t.Errorf("replay fingerprint %#x != first run %#x", fp2, fp)
			}
		})
	}
}

// TestTopologySmoke32 is the CI smoke: boot 32 machines in a star, run one
// matrix-style config over them, verify completion and that a digest
// replays — small enough for every CI run, large enough to exercise the
// switch and cluster at fan-in.
func TestTopologySmoke32(t *testing.T) {
	cfg := MatrixConfig{
		Name: "smoke32", Machines: 32,
		Loss: 0.01, Reorder: 0.05,
		Conversations: 8, Bytes: 8 << 10, Seed: 3232,
	}
	results, fp, err := RunMatrixCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Complete || r.Corrupt {
			t.Fatalf("smoke transfer failed: %+v", r)
		}
	}
	_, fp2, err := RunMatrixCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fp != fp2 {
		t.Fatalf("smoke digest mismatch: %#x vs %#x", fp, fp2)
	}
}

// TestMatrixCellsDistinct: different cells produce different traffic; the
// fingerprint actually depends on the configuration, not just the code.
func TestMatrixCellsDistinct(t *testing.T) {
	a := MatrixConfig{Name: "a", Machines: 4, Conversations: 2, Bytes: 4 << 10, Seed: 1}
	b := a
	b.Name, b.Loss, b.Seed = "b", 0.05, 1
	_, fpA, err := RunMatrixCell(a)
	if err != nil {
		t.Fatal(err)
	}
	_, fpB, err := RunMatrixCell(b)
	if err != nil {
		t.Fatal(err)
	}
	if fpA == fpB {
		t.Errorf("clean and lossy cells share fingerprint %#x", fpA)
	}
}

// TestConversationHarnessErrors: misuse surfaces as errors, not panics.
func TestConversationHarnessErrors(t *testing.T) {
	in, err := Star(2, edge, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunConversations(in, []Conversation{{From: "h0", To: "nope", Bytes: 10}}, sim.Time(sim.Second)); err == nil {
		t.Error("unknown machine accepted")
	}
	if _, err := RunConversations(in, []Conversation{{From: "nope", To: "h0", Bytes: 10}}, sim.Time(sim.Second)); err == nil {
		t.Error("unknown machine accepted")
	}
}

// TestConversationDeadline: a transfer that cannot finish (permanently
// downed spoke) reports incomplete instead of hanging.
func TestConversationDeadline(t *testing.T) {
	in, err := Star(2, edge, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.Link("h0~s0").SetDown(true)
	results, err := RunConversations(in, []Conversation{
		{From: "h0", To: "h1", Bytes: 4 << 10},
	}, sim.Time(2*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Complete {
		t.Error("transfer completed across a dead link")
	}
	if results[0].Received != 0 {
		t.Errorf("received %d bytes across a dead link", results[0].Received)
	}
}

// TestConversationDetectsCorruption: a link hook flips one payload byte in
// one mid-stream data segment of one conversation. That conversation must
// come back Corrupt; the others, sharing the topology, must come back clean.
// The receiver checks a word at a time, so the flip is tried at every
// offset of the segment's first two words, in its middle, and at every byte
// of its trailing partial word.
func TestConversationDetectsCorruption(t *testing.T) {
	const mss = netstack.DefaultMSS
	if mss%8 == 0 {
		t.Fatal("MSS-sized segments end on a word boundary; no partial word to test")
	}
	var offsets []int
	for off := 0; off < 16; off++ {
		offsets = append(offsets, off)
	}
	offsets = append(offsets, mss/2)
	for off := mss - mss%8; off < mss; off++ {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		t.Run(fmt.Sprintf("offset%d", off), func(t *testing.T) { corruptOneByte(t, off) })
	}
}

// corruptOneByte flips the byte at offset off of the fifth full-sized data
// segment of the conversation to port 4001 and checks that exactly that
// conversation reports corruption.
func corruptOneByte(t *testing.T, off int) {
	in, err := Star(4, edge, 3)
	if err != nil {
		t.Fatal(err)
	}
	const victimPort, victimSegment = 4001, 5
	segments, flipped := 0, false
	in.Link("h1~s0").AddHook(func(ev *FrameEvent) Verdict {
		pkt, ok := ev.Frame.Payload.(*netstack.Packet)
		if !ok || flipped || pkt.Proto != netstack.ProtoTCP || pkt.DstPort != victimPort || len(pkt.Payload) != netstack.DefaultMSS {
			return Pass
		}
		if segments++; segments == victimSegment {
			pkt.Payload[off] ^= 0x5A
			flipped = true
		}
		return Pass
	})
	results, err := RunConversations(in, []Conversation{
		{From: "h0", To: "h2", Bytes: 64 << 10},
		{From: "h1", To: "h3", Bytes: 64 << 10},
		{From: "h2", To: "h0", Bytes: 64 << 10},
	}, sim.Time(10*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if !flipped {
		t.Fatal("hook never saw the victim segment")
	}
	for i, r := range results {
		if !r.Complete {
			t.Errorf("conversation %d incomplete (%d bytes)", i, r.Received)
		}
		if victim := r.Port == victimPort; r.Corrupt != victim {
			t.Errorf("conversation %d (port %d): Corrupt = %v, want %v", i, r.Port, r.Corrupt, victim)
		}
	}
}

func init() {
	// Guard: the matrix template must pair distinct machines in every cell
	// (From == To would short-circuit the network entirely).
	for _, cfg := range DefaultMatrix() {
		for i := 0; i < cfg.Conversations; i++ {
			from := i % cfg.Machines
			to := (i + cfg.Machines/2) % cfg.Machines
			if from == to {
				panic(fmt.Sprintf("matrix cell %s pairs h%d with itself", cfg.Name, from))
			}
		}
	}
}
