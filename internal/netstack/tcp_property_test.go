package netstack

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"spin/internal/sal"
	"spin/internal/sim"
)

// echoRun streams chunks derived from chunkSeeds (at most 12, 1–2000 bytes
// each) from a client to a server that echoes every byte back, over a pair
// losing lossPct%16 percent of frames in each direction. It reports both
// endpoints (server nil if the handshake never completed) and whether both
// streams arrived intact.
func echoRun(t *testing.T, chunkSeeds []uint16, lossPct uint8, seed uint64) (client, server *Conn, cl *sim.Cluster, intact bool) {
	lossRate := float64(lossPct%16) / 100 // 0-15%
	if len(chunkSeeds) > 12 {
		chunkSeeds = chunkSeeds[:12]
	}
	a, b, cl := pair(t, sal.LanceModel)
	if lossRate > 0 {
		a.nic.InjectLoss(lossRate, seed|1)
		b.nic.InjectLoss(lossRate, seed|2)
	}
	var sent []byte
	for i, cs := range chunkSeeds {
		size := int(cs)%2000 + 1
		chunk := make([]byte, size)
		for j := range chunk {
			chunk[j] = byte(i + j)
		}
		sent = append(sent, chunk...)
	}
	var serverGot, clientGot []byte
	_ = b.stack.TCP().Listen(80, nil, func(c *Conn) {
		server = c
		c.OnData = func(c *Conn, d []byte) {
			serverGot = append(serverGot, d...)
			_ = c.Send(d) // echo
		}
	})
	client, err := a.stack.TCP().Connect(Addr(10, 0, 0, 2), 80, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.OnConnect = func(c *Conn) {
		off := 0
		for _, cs := range chunkSeeds {
			size := int(cs)%2000 + 1
			_ = c.Send(sent[off : off+size])
			off += size
		}
	}
	client.OnData = func(_ *Conn, d []byte) { clientGot = append(clientGot, d...) }
	done := func() bool {
		return len(serverGot) == len(sent) && len(clientGot) == len(sent)
	}
	cl.RunUntil(done, sim.Time(30*60*sim.Second))
	return client, server, cl, bytes.Equal(serverGot, sent) && bytes.Equal(clientGot, sent)
}

// Property: for any traffic profile — arbitrary chunk sizes, arbitrary
// moderate loss — TCP delivers every byte, in order, exactly once, in both
// directions; or, when the retransmission cap gives up on a stream, both
// ends report the failure. An end the cap tore down reports ErrTimedOut
// and resets its peer; should that RST be lost, the peer learns of the
// failure no later than its next send.
func TestTCPBidirectionalIntegrityProperty(t *testing.T) {
	check := func(chunkSeeds []uint16, lossPct uint8, seed uint64) bool {
		if len(chunkSeeds) == 0 {
			return true
		}
		client, server, cl, intact := echoRun(t, chunkSeeds, lossPct, seed)
		if intact {
			return true
		}
		ends := []*Conn{client}
		if server != nil {
			ends = append(ends, server)
		}
		for _, c := range ends {
			if c.Err() == nil {
				_ = c.Send([]byte{0})
			}
		}
		cl.Run(0)
		for _, c := range ends {
			if c.Err() == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestTCPRetxCapResetsPeer pins an input that fails the plain integrity
// property: the server's echo of the last chunk meets seven lost round
// trips in a row, so the retransmission cap tears its connection down.
// The client stayed ESTABLISHED with no error; the torn-down end now
// sends a RST, so the client reports ErrReset.
func TestTCPRetxCapResetsPeer(t *testing.T) {
	chunks := []uint16{32730, 12670, 20235, 41506, 17643, 42206, 3498, 51133, 7653, 19420, 9983, 34018}
	client, server, _, intact := echoRun(t, chunks, 15, 16688190007717775441)
	if intact {
		t.Fatal("streams arrived intact: the pinned input no longer exercises the cap")
	}
	if !errors.Is(server.Err(), ErrTimedOut) {
		t.Errorf("server error %v, want ErrTimedOut", server.Err())
	}
	if !errors.Is(client.Err(), ErrReset) || client.State() != StateClosed {
		t.Errorf("client %v with error %v, want CLOSED with ErrReset", client.State(), client.Err())
	}
}
