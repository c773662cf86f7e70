package vnet

import (
	"bytes"
	"strings"
	"testing"

	"spin/internal/netstack"
	"spin/internal/sim"
)

// TestHTTPGetSegments pins the wire cost of one in-kernel HTTP GET of a
// 3,000-byte document between the two hosts of a star, counted on the
// client's spoke. Twelve segments: SYN, SYN-ACK, the request (carrying the
// handshake's last ACK), three response segments (the first carrying the
// request's ACK), the client's ACK of each of the last two, the server's
// FIN, the client's FIN (carrying the ACK of the server's) and the final
// ACK. A duplicate FIN, a stray RST or a separate pure ACK where one could
// ride on data changes the count.
func TestHTTPGetSegments(t *testing.T) {
	in, err := Star(2, LinkModel{Latency: 50 * sim.Microsecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	doc := bytes.Repeat([]byte("spin"), 750)
	if _, err := netstack.NewHTTPServer(in.Machine("h1").Stack, 80, netstack.InKernelDelivery,
		netstack.ContentMap{"/doc": doc}); err != nil {
		t.Fatal(err)
	}
	var segs, rsts int
	in.Link("h0~s0").AddHook(func(ev *FrameEvent) Verdict {
		segs++
		if p, ok := ev.Frame.Payload.(*netstack.Packet); ok && p.Flags&netstack.FlagRST != 0 {
			rsts++
		}
		return Pass
	})
	var status string
	var body []byte
	if err := netstack.HTTPGet(in.Machine("h0").Stack, in.IP("h1"), 80, "/doc", netstack.InKernelDelivery,
		func(s string, b []byte) { status, body = s, b }); err != nil {
		t.Fatal(err)
	}
	in.Run(0)
	if !strings.Contains(status, "200") || !bytes.Equal(body, doc) {
		t.Fatalf("status %q, %d-byte body; want 200 and the %d-byte document", status, len(body), len(doc))
	}
	if segs != 12 || rsts != 0 {
		t.Errorf("%d segments (%d RSTs) on the wire, want 12 (0)", segs, rsts)
	}
	for _, m := range []string{"h0", "h1"} {
		if n := in.Machine(m).Stack.TCP().Conns(); n != 0 {
			t.Errorf("%s: %d connections left", m, n)
		}
	}
}
