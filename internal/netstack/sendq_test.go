package netstack

import (
	"bytes"
	"testing"

	"spin/internal/sal"
	"spin/internal/sim"
)

// TestSendQueueModel drives the chunked send queue with random writes,
// reads and frees against a flat reference slice. Every read must return
// exactly the reference bytes — reads that straddle chunk boundaries
// included — and the queue must hold exactly the bytes not yet freed.
func TestSendQueueModel(t *testing.T) {
	straddled := 0
	for seed := uint64(1); seed <= 50; seed++ {
		rng := sim.NewRand(seed)
		var q sendQueue
		var ref []byte // the queued bytes, oldest first
		next := byte(0)
		for step := 0; step < 400; step++ {
			switch rng.Intn(3) {
			case 0:
				// Mostly small writes, sometimes one past maxSendChunk.
				n := 1 + rng.Intn(3000)
				if rng.Intn(20) == 0 {
					n = maxSendChunk + rng.Intn(maxSendChunk)
				}
				p := make([]byte, n)
				for i := range p {
					p[i] = next
					next += 13
				}
				// Some writes come in parts, as a header and body do.
				if rng.Intn(2) == 0 {
					cut := rng.Intn(n + 1)
					q.write(p[:cut], nil, p[cut:])
				} else {
					q.write(p)
				}
				ref = append(ref, p...)
			case 1:
				if len(ref) == 0 {
					continue
				}
				off := rng.Intn(len(ref))
				n := 1 + rng.Intn(min(len(ref)-off, 2*DefaultMSS))
				got := make([]byte, n)
				q.read(got, off)
				if !bytes.Equal(got, ref[off:off+n]) {
					t.Fatalf("seed %d step %d: read(%d, %d) differs from reference", seed, step, off, n)
				}
				if crossesChunk(&q, off, n) {
					straddled++
				}
			case 2:
				k := rng.Intn(len(ref) + 1)
				q.free(k)
				ref = ref[k:]
			}
			if q.n != len(ref) {
				t.Fatalf("seed %d step %d: queue holds %d bytes, reference %d", seed, step, q.n, len(ref))
			}
			held := -q.head
			for _, c := range q.chunks {
				held += len(c)
			}
			if held != len(ref) {
				t.Fatalf("seed %d step %d: chunks hold %d bytes, want %d", seed, step, held, len(ref))
			}
		}
	}
	if straddled < 100 {
		t.Errorf("only %d reads straddled a chunk boundary", straddled)
	}
}

// crossesChunk reports whether queue bytes [off, off+n) span two chunks.
func crossesChunk(q *sendQueue, off, n int) bool {
	off += q.head
	for _, c := range q.chunks {
		if off < len(c) {
			return off+n > len(c)
		}
		off -= len(c)
	}
	return false
}

// TestSendQueueSmallWriteSizedToWrite: a request-sized write allocates a
// request-sized chunk, not a fixed large one, and a write in parts — a
// response header and body — one chunk sized for all of them.
func TestSendQueueSmallWriteSizedToWrite(t *testing.T) {
	var q sendQueue
	q.write(make([]byte, 30))
	if len(q.chunks) != 1 || cap(q.chunks[0]) != 30 {
		t.Fatalf("30-byte write made chunks of cap %d", cap(q.chunks[0]))
	}
	var r sendQueue
	r.write(make([]byte, 40), make([]byte, 3000))
	if len(r.chunks) != 1 || cap(r.chunks[0]) != 3040 {
		t.Fatalf("40+3000-byte write made %d chunks, the first of cap %d", len(r.chunks), cap(r.chunks[0]))
	}
}

// tapWire sits between a NIC and its wire: it shows every frame to inspect,
// then drops it with a seeded probability.
type tapWire struct {
	inner   sal.Wire
	rng     *sim.Rand
	loss    float64
	inspect func(*Packet)
}

func (w *tapWire) Transmit(f sal.NetFrame, departed sim.Time) {
	if pkt, ok := f.Payload.(*Packet); ok {
		w.inspect(pkt)
	}
	if w.rng.Float64() < w.loss {
		sal.ReleaseFrame(f)
		return
	}
	w.inner.Transmit(f, departed)
}

// TestTCPSendQueueTransmitsReferenceBytes streams random-sized writes, made
// at random times, over a lossy pair whose receiver now and then advertises
// a zero window. Every segment the sender puts on the wire — first sends,
// retransmissions and persist probes — must carry exactly the reference
// bytes for its sequence number, and the receiver must get the whole
// stream.
func TestTCPSendQueueTransmitsReferenceBytes(t *testing.T) {
	var retx, probes int64
	for seed := uint64(1); seed <= 12; seed++ {
		r, p := sendQueueRun(t, seed)
		retx += r
		probes += p
	}
	if retx == 0 || probes == 0 {
		t.Errorf("retransmits %d, persist probes %d: loss or zero windows not exercised", retx, probes)
	}
}

func sendQueueRun(t *testing.T, seed uint64) (retx, probes int64) {
	a, b, cl := pair(t, sal.LanceModel)
	rng := sim.NewRand(seed)

	var ref []byte
	var base uint32 // sequence number of ref[0]
	segments := 0
	a.nic.AttachWire(&tapWire{inner: a.nic.Wire(), rng: sim.NewRand(seed ^ 0xa5), loss: 0.05,
		inspect: func(pkt *Packet) {
			if pkt.Flags&FlagSYN != 0 {
				base = pkt.Seq + 1
				return
			}
			if len(pkt.Payload) == 0 {
				return
			}
			segments++
			off := int(pkt.Seq - base)
			if off < 0 || off+len(pkt.Payload) > len(ref) {
				t.Fatalf("seed %d: segment seq %d len %d outside the %d bytes sent", seed, pkt.Seq, len(pkt.Payload), len(ref))
			}
			if !bytes.Equal(pkt.Payload, ref[off:off+len(pkt.Payload)]) {
				t.Fatalf("seed %d: segment at offset %d (len %d) differs from the bytes sent", seed, off, len(pkt.Payload))
			}
		}})
	b.nic.AttachWire(&tapWire{inner: b.nic.Wire(), rng: sim.NewRand(seed ^ 0x5a), loss: 0.05,
		inspect: func(pkt *Packet) {
			if pkt.Flags&FlagACK != 0 && rng.Intn(25) == 0 {
				pkt.Window = 0
			}
		}})

	var got []byte
	if err := b.stack.TCP().Listen(80, nil, func(c *Conn) {
		c.OnData = func(_ *Conn, d []byte) { got = append(got, d...) }
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := a.stack.TCP().Connect(b.stack.IP, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	next := byte(seed)
	send := func() {
		n := 1 + rng.Intn(4000)
		if rng.Intn(10) == 0 {
			n = maxSendChunk + rng.Intn(4000)
		}
		p := make([]byte, n)
		for i := range p {
			p[i] = next
			next += 11
		}
		ref = append(ref, p...)
		if err := conn.Send(p); err != nil {
			t.Fatalf("seed %d: send: %v", seed, err)
		}
	}
	// Writes in bursts at random times: some land while data is in
	// flight, some after the queue has drained.
	const bursts = 24
	sent := 0
	for i := 0; i < bursts; i++ {
		at := sim.Time(rng.Intn(3000)) * sim.Time(sim.Millisecond)
		burst := 1 + rng.Intn(3)
		a.eng.At(at, func() {
			for j := 0; j < burst; j++ {
				send()
			}
			sent++
		})
	}
	cl.RunUntil(func() bool {
		return sent == bursts && len(got) == len(ref) && conn.snd.outstanding() == 0
	}, sim.Time(20*60*sim.Second))
	if !bytes.Equal(got, ref) {
		t.Fatalf("seed %d: receiver got %d bytes, %d sent (or they differ)", seed, len(got), len(ref))
	}
	if segments == 0 {
		t.Fatalf("seed %d: no data segments seen", seed)
	}
	return conn.Retransmits(), conn.ZeroWindowProbes()
}
