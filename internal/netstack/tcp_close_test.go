package netstack

import (
	"bytes"
	"errors"
	"testing"

	"spin/internal/sal"
	"spin/internal/sim"
)

// wireCount counts the segments one NIC puts on the wire, by flag.
type wireCount struct{ segs, fins, rsts, pureACKs int }

// countWire taps h's transmitter (lossless) and returns its counters.
func countWire(h *host) *wireCount {
	n := new(wireCount)
	h.nic.AttachWire(&tapWire{inner: h.nic.Wire(), rng: sim.NewRand(1), inspect: func(p *Packet) {
		n.segs++
		switch {
		case p.Flags&FlagRST != 0:
			n.rsts++
		case p.Flags&FlagFIN != 0:
			n.fins++
		case p.Flags == FlagACK && len(p.Payload) == 0:
			n.pureACKs++
		}
	}})
	return n
}

// TestTCPCloseSendsOneFIN: closing a connection whose send queue is empty
// puts exactly one FIN on the wire per side — whoever closes first, and
// when both close at once — draws no RST, retransmits nothing, and leaves
// no connection behind once TIME_WAIT has run out. (Close used to send the
// FIN twice: two sequence numbers, an orphaned retransmit timer, and a RST
// for the peer's second ACK.)
func TestTCPCloseSendsOneFIN(t *testing.T) {
	for _, tc := range []struct {
		name           string
		client, server bool // who calls Close first
	}{
		{"client", true, false},
		{"server", false, true},
		{"simultaneous", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b, cl := pair(t, sal.LanceModel)
			client, srv := establish(t, a, b, cl)
			ca, cb := countWire(a), countWire(b)
			closeOnPeer := func(c *Conn) { _ = c.Close() }
			client.OnClose, (*srv).OnClose = closeOnPeer, closeOnPeer
			if tc.client {
				_ = client.Close()
			}
			if tc.server {
				_ = (*srv).Close()
			}
			cl.Run(0)
			for side, n := range map[string]*wireCount{"client": ca, "server": cb} {
				if n.fins != 1 || n.rsts != 0 {
					t.Errorf("%s sent %d FINs and %d RSTs, want 1 and 0", side, n.fins, n.rsts)
				}
			}
			if r := client.Retransmits() + (*srv).Retransmits(); r != 0 {
				t.Errorf("%d retransmissions on a lossless close", r)
			}
			if n := a.stack.TCP().Conns() + b.stack.TCP().Conns(); n != 0 {
				t.Errorf("%d connections left after the close drained", n)
			}
			if err := errors.Join(client.Err(), (*srv).Err()); err != nil {
				t.Errorf("close reported %v", err)
			}
		})
	}
}

// TestTCPPiggybackedACKs pins the segments of one request/response
// exchange: the request rides on the handshake's final ACK, the response
// on the request's ACK, and each side's FIN on the ACK of the peer's
// data or FIN. Only the receiver's per-segment ACKs of the response and
// the final ACK of the client's FIN travel alone.
func TestTCPPiggybackedACKs(t *testing.T) {
	a, b, cl := pair(t, sal.LanceModel)
	ca, cb := countWire(a), countWire(b)
	response := make([]byte, 3*DefaultMSS)
	if err := b.stack.TCP().Listen(80, nil, func(c *Conn) {
		c.OnData = func(c *Conn, _ []byte) {
			_ = c.Send(response)
			_ = c.Close()
		}
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := a.stack.TCP().Connect(b.stack.IP, 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	conn.OnConnect = func(c *Conn) { _ = c.Send([]byte("request")) }
	conn.OnData = func(_ *Conn, d []byte) { got += len(d) }
	conn.OnClose = func(c *Conn) { _ = c.Close() }
	cl.Run(0)
	if got != len(response) {
		t.Fatalf("client got %d of %d bytes", got, len(response))
	}
	// Client: SYN, request, one ACK per response segment, FIN.
	// Server: SYN-ACK, three response segments, FIN, the last ACK.
	if ca.segs != 6 || ca.pureACKs != 3 || cb.segs != 6 || cb.pureACKs != 1 {
		t.Errorf("client sent %d segments (%d pure ACKs), server %d (%d); want 6 (3) and 6 (1)",
			ca.segs, ca.pureACKs, cb.segs, cb.pureACKs)
	}
	if n := a.stack.TCP().Conns() + b.stack.TCP().Conns(); n != 0 {
		t.Errorf("%d connections left", n)
	}
}

// TestTCPPiggybackedACKsUnderLoss sweeps 40 lossy seeds over the same
// request/response/close exchange. Piggybacking must never cost an ACK the
// peer needs: both streams arrive intact, and every connection closes
// cleanly on both sides.
func TestTCPPiggybackedACKsUnderLoss(t *testing.T) {
	const reqLen, respLen = 3000, 16 * 1024
	request, response := make([]byte, reqLen), make([]byte, respLen)
	for i := range request {
		request[i] = byte(i * 5)
	}
	for i := range response {
		response[i] = byte(i * 13)
	}
	for seed := uint64(1); seed <= 40; seed++ {
		a, b, cl := lossyPair(t, 0.1, seed)
		var server *Conn
		var serverGot, clientGot []byte
		_ = b.stack.TCP().Listen(80, nil, func(c *Conn) {
			server = c
			c.OnData = func(c *Conn, d []byte) {
				serverGot = append(serverGot, d...)
				if len(serverGot) == reqLen {
					_ = c.Send(response)
					_ = c.Close()
				}
			}
		})
		conn, _ := a.stack.TCP().Connect(b.stack.IP, 80, nil)
		conn.OnConnect = func(c *Conn) { _ = c.Send(request) }
		conn.OnData = func(_ *Conn, d []byte) { clientGot = append(clientGot, d...) }
		conn.OnClose = func(c *Conn) { _ = c.Close() }
		cl.Run(0)
		if !bytes.Equal(serverGot, request) || !bytes.Equal(clientGot, response) {
			t.Errorf("seed %d: server got %d of %d request bytes, client %d of %d response bytes (or they differ)",
				seed, len(serverGot), reqLen, len(clientGot), respLen)
			continue
		}
		if n := a.stack.TCP().Conns() + b.stack.TCP().Conns(); n != 0 {
			t.Errorf("seed %d: %d connections left", seed, n)
		}
		if err := errors.Join(conn.Err(), server.Err()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
