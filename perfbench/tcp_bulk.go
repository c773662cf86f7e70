package main

import (
	"fmt"
	"time"

	"spin/internal/netstack"
	"spin/internal/sim"
	"spin/internal/vnet"
)

// tcp_bulk streams pattern-verified bytes across a lossy dumbbell
// bottleneck: MSS-sized segments and retransmission, where the HTTP
// workloads send small request/response pairs over lossless links.
//
// One operation is one data segment's payload. Its latency runs from the
// segment's first transmission to the receiver's cumulative ACK covering
// it, which includes any wait for retransmission. Both ends are read from
// outside the stack with pass-through link hooks: the segments the sender
// puts on its first link, and the ACKs the receiver puts on its own.

const (
	bulkPairs    = 4
	bulkDeadline = sim.Time(240 * 3600 * sim.Second)
)

// bulkBytes is each stream's length.
func bulkBytes(cfg config) int {
	if cfg.tiny {
		return 1 << 20
	}
	return 8 << 20
}

// pending is a segment sent for the first time and not yet acknowledged.
type pending struct {
	end  uint32
	virt sim.Time
	wall time.Time
}

// stream follows one conversation on the wire.
type stream struct {
	started bool
	sentEnd uint32    // end of the highest byte sent so far
	queue   []pending // first transmissions awaiting their ACK, in order

	segments, retx   int64
	wallLat, virtLat []float64
	lastVirt         sim.Time
}

// sent inspects a segment leaving the sender: data below the highest byte
// already sent is a retransmission, anything else a first transmission.
func (s *stream) sent(pkt *netstack.Packet, at sim.Time) {
	if len(pkt.Payload) == 0 {
		return
	}
	s.segments++
	end := pkt.Seq + uint32(len(pkt.Payload))
	if s.started && int32(end-s.sentEnd) <= 0 {
		s.retx++
		return
	}
	s.started, s.sentEnd = true, end
	s.queue = append(s.queue, pending{end: end, virt: at, wall: time.Now()})
}

// acked inspects a segment leaving the receiver: every first transmission
// its cumulative ACK covers has been delivered in order.
func (s *stream) acked(pkt *netstack.Packet, at sim.Time) {
	if pkt.Flags&netstack.FlagACK == 0 {
		return
	}
	n := 0
	for n < len(s.queue) && int32(pkt.Ack-s.queue[n].end) >= 0 {
		n++
	}
	if n == 0 {
		return
	}
	now := time.Now()
	for _, p := range s.queue[:n] {
		s.wallLat = append(s.wallLat, float64(now.Sub(p.wall).Nanoseconds())/1e3)
		s.virtLat = append(s.virtLat, at.Sub(p.virt).Micros())
	}
	s.queue = append(s.queue[:0], s.queue[n:]...)
	s.lastVirt = at
}

func tcpBulkEpisode(seed uint64, cfg config, tr *tracer) (*episode, error) {
	ep := &episode{}
	edge := vnet.LinkModel{Latency: 100 * sim.Microsecond}
	neck := vnet.LinkModel{Latency: 2 * sim.Millisecond, BandwidthBps: 100_000_000, Loss: 0.001}
	base := liveHeap()
	t0 := time.Now()
	in, err := vnet.Dumbbell(bulkPairs, bulkPairs, edge, neck, seed)
	if err != nil {
		return nil, err
	}
	ep.setup = time.Since(t0).Seconds()
	ep.heapKB = heapPerMachineKB(base, len(in.Machines()))
	ep.engines = len(in.Cluster().Engines())

	size := bulkBytes(cfg)
	convs := make([]vnet.Conversation, bulkPairs)
	streams := make([]stream, bulkPairs)
	for i := range convs {
		tx, rx := fmt.Sprintf("l%d", i), fmt.Sprintf("r%d", i)
		convs[i] = vnet.Conversation{From: tx, To: rx, Bytes: size}
		s := &streams[i]
		fromTx, fromRx := tx+"->sl", rx+"->sr"
		in.Link(tx + "~sl").AddHook(func(ev *vnet.FrameEvent) vnet.Verdict {
			if pkt, ok := ev.Frame.Payload.(*netstack.Packet); ok && ev.Dir == fromTx && pkt.Proto == netstack.ProtoTCP {
				s.sent(pkt, ev.Depart)
			}
			return vnet.Pass
		})
		in.Link(rx + "~sr").AddHook(func(ev *vnet.FrameEvent) vnet.Verdict {
			if pkt, ok := ev.Frame.Payload.(*netstack.Packet); ok && ev.Dir == fromRx && pkt.Proto == netstack.ProtoTCP {
				s.acked(pkt, ev.Depart)
			}
			return vnet.Pass
		})
	}

	c0 := readCounters(in)
	w0 := time.Now()
	runSpan := tr.open("sim.run", 0, 0, 0)
	// The harness opens the streams and returns at once (deadline 1ns);
	// the run itself is one Internet.Run, whose event count it returns.
	// Results keep updating until the run ends.
	results, err := vnet.RunConversations(in, convs, 1)
	if err != nil {
		return nil, err
	}
	var events int
	tr.measure(func() { events = in.Run(bulkDeadline) })
	ep.wall = time.Since(w0).Seconds()

	var end sim.Time
	for i := range streams {
		s := &streams[i]
		end = max(end, s.lastVirt)
		ep.wallLat = append(ep.wallLat, s.wallLat...)
		ep.virtLat = append(ep.virtLat, s.virtLat...)
	}
	tr.end(runSpan, end)
	var retx, segs int64
	for i, r := range results {
		ep.attempted += int(streams[i].segments - streams[i].retx)
		ep.ops += len(streams[i].virtLat)
		retx += streams[i].retx
		segs += streams[i].segments
		switch {
		case r.Corrupt:
			ep.violations.add("tcp_bulk.corrupt", 1)
		case !r.Complete:
			ep.violations.add("tcp_bulk.incomplete", 1)
		default:
			ep.bytes += int64(r.Received)
		}
	}
	ep.violations.add("tcp_bulk.unacknowledged", ep.attempted-ep.ops)
	// RunConversations keeps both ends of every stream open by design, so
	// exactly two connections per stream must remain, and no others.
	ep.checkConns(in, 2*bulkPairs, "tcp_bulk.conns_left")
	c := readCounters(in).since(c0)
	c["tcp.conns"] -= 2 * bulkPairs
	c["sim.events"] = int64(events)
	c["tcp.retx"], c["tcp.segments"] = retx, segs
	c["bulk.bytes"], c["bulk.virt_ns"] = ep.bytes, int64(end)
	ep.counters = c
	ep.fingerprint(in)
	return ep, nil
}
