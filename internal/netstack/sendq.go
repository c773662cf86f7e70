package netstack

// maxSendChunk caps one send-queue chunk, so acknowledged bytes of a long
// transfer are freed as the transfer proceeds rather than all at its end.
const maxSendChunk = 64 << 10

// sendQueue holds a connection's outgoing bytes exactly once, from the
// oldest unacknowledged byte to the newest unsent one. Send copies bytes
// in; every transmission — first send, retransmission, persist probe —
// copies straight out into the segment's pooled packet; acknowledgements
// free bytes from the front a whole chunk at a time.
//
// Chunks are sized to the writes: a new chunk holds the rest of the write
// that needs it or, if larger, as many bytes as are already queued (so a
// long transfer allocates O(log n) growing chunks up to maxSendChunk, then
// fixed ones), and a 30-byte request allocates 30 bytes.
type sendQueue struct {
	// chunks[0][head:] are the oldest queued bytes; the last chunk takes
	// writes into its spare capacity.
	chunks [][]byte
	head   int
	n      int // bytes queued
}

// write appends the concatenation of parts to the queue as one write: a
// header and body written together share one chunk.
func (q *sendQueue) write(parts ...[]byte) {
	rest := 0
	for _, p := range parts {
		rest += len(p)
	}
	for _, p := range parts {
		for len(p) > 0 {
			if k := len(q.chunks); k > 0 {
				last := q.chunks[k-1]
				if m := copy(last[len(last):cap(last)], p); m > 0 {
					q.chunks[k-1] = last[:len(last)+m]
					q.n += m
					rest -= m
					p = p[m:]
					continue
				}
			}
			size := min(max(rest, q.n), maxSendChunk)
			q.chunks = append(q.chunks, make([]byte, 0, size))
		}
	}
}

// read copies the queued bytes starting at offset off into dst, which the
// queue must cover.
func (q *sendQueue) read(dst []byte, off int) {
	off += q.head
	for _, c := range q.chunks {
		if off >= len(c) {
			off -= len(c)
			continue
		}
		m := copy(dst, c[off:])
		if dst = dst[m:]; len(dst) == 0 {
			return
		}
		off = 0
	}
}

// free drops the oldest k bytes. A chunk goes once all its bytes are
// gone, except the last, which is rewound to take further writes.
func (q *sendQueue) free(k int) {
	q.n -= k
	q.head += k
	for len(q.chunks) > 0 {
		c := q.chunks[0]
		if q.head < len(c) {
			return
		}
		if len(q.chunks) == 1 {
			q.chunks[0], q.head = c[:0], 0
			return
		}
		q.head -= len(c)
		q.chunks[0] = nil
		q.chunks = q.chunks[1:]
	}
}

// segment is one transmitted, unacknowledged segment. Its bytes stay in the
// send queue; a FIN occupies one sequence number and no bytes.
type segment struct {
	seq, n uint32
	fin    bool
}

// sendState is a connection's send side: the byte queue and the segments
// in flight, in sequence order. The queue starts with the first in-flight
// segment's bytes; the bytes after the in-flight ones are unsent. It is
// made on a connection's first Send or Close, so a connection that never
// sends carries one nil pointer.
type sendState struct {
	q        sendQueue
	sent     int // queued bytes already transmitted (in flight)
	inflight []segment
}

// unsent reports the queued bytes not yet transmitted (0 for a nil state).
func (s *sendState) unsent() int {
	if s == nil {
		return 0
	}
	return s.q.n - s.sent
}

// outstanding reports the number of segments in flight (0 for a nil state).
func (s *sendState) outstanding() int {
	if s == nil {
		return 0
	}
	return len(s.inflight)
}

// ack drops the in-flight segments a cumulative ACK up to ack covers and
// frees their bytes from the queue. It reports how many segments went and
// whether the FIN was among them (nothing, for a nil state).
func (s *sendState) ack(ack uint32) (segs int, finAcked bool) {
	if s == nil {
		return 0, false
	}
	keep := s.inflight[:0]
	freed := 0
	for _, seg := range s.inflight {
		end := seg.seq + seg.n
		if seg.fin {
			end = seg.seq + 1
		}
		if int32(end-ack) > 0 {
			keep = append(keep, seg)
			continue
		}
		segs++
		freed += int(seg.n)
		finAcked = finAcked || seg.fin
	}
	s.inflight = keep
	s.q.free(freed)
	s.sent -= freed
	return segs, finAcked
}

// finInflight reports whether a FIN has been sent and not acknowledged.
func (s *sendState) finInflight() bool {
	if s == nil {
		return false
	}
	for _, seg := range s.inflight {
		if seg.fin {
			return true
		}
	}
	return false
}
