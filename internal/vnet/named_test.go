package vnet

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"spin/internal/netstack"
	"spin/internal/sim"
)

// namedStar builds the canonical named-service topology: web server,
// client and nameserver around one switch, with web.spin.test serving
// a page over the in-kernel HTTP extension.
func namedStar(seed uint64) (*Internet, error) {
	edge := LinkModel{Latency: 200 * sim.Microsecond}
	in, err := NewBuilder(seed).
		Machine("web", 0).
		Machine("client", 0).
		Machine("ns", 0).
		Switch("s0").
		Link("web", "s0", edge).
		Link("client", "s0", edge).
		Link("ns", "s0", edge).
		Build()
	if err != nil {
		return nil, err
	}
	if err := in.EnableDNS("ns"); err != nil {
		return nil, err
	}
	if _, err := netstack.NewHTTPServer(in.Machine("web").Stack, 80, netstack.InKernelDelivery,
		netstack.ContentMap{"/": []byte("extensibility, safety and performance")}); err != nil {
		return nil, err
	}
	return in, nil
}

// fetchByName runs the acceptance scenario: an unmodified net/http client
// resolves web.spin.test through the topology's DNS and fetches the page.
// It returns only once net/http has closed the connection it dialed: with
// keep-alives off, the transport's read loop closes the socket after the
// body is consumed, on its own goroutine, and that close sends a FIN. A
// caller that drains the simulation afterwards thus sees the FIN inside
// the drain, not racing with whatever it reads next (link digests).
func fetchByName(in *Internet) (string, error) {
	dialer, err := in.Dialer("client")
	if err != nil {
		return "", err
	}
	var (
		mu     sync.Mutex
		dialed []*closeNotifier
	)
	httpc := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			c := &closeNotifier{Conn: conn, closed: make(chan struct{})}
			mu.Lock()
			dialed = append(dialed, c)
			mu.Unlock()
			return c, nil
		},
		DisableKeepAlives: true,
	}}
	body, err := get(httpc, "http://web.spin.test/")
	mu.Lock()
	conns := dialed
	mu.Unlock()
	for _, c := range conns {
		select {
		case <-c.closed:
		case <-time.After(10 * time.Second):
			return "", errors.New("net/http never closed its connection")
		}
	}
	return body, err
}

// get fetches url with httpc and returns the body of a 200 response.
func get(httpc *http.Client, url string) (string, error) {
	resp, err := httpc.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", errors.New("status " + resp.Status)
	}
	return string(body), nil
}

// closeNotifier is a dialed connection that closes its channel once Close
// has run.
type closeNotifier struct {
	net.Conn
	once   sync.Once
	closed chan struct{}
}

func (c *closeNotifier) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { close(c.closed) })
	return err
}

// End-to-end named service: resolve + dial + HTTP over the 3-machine star,
// by plain Go stdlib client code.
func TestNamedServiceHTTP(t *testing.T) {
	in, err := namedStar(42)
	if err != nil {
		t.Fatal(err)
	}
	body, err := fetchByName(in)
	if err != nil {
		t.Fatal(err)
	}
	if body != "extensibility, safety and performance" {
		t.Fatalf("body = %q", body)
	}
	// The client really resolved: one DNS query hit the ns machine.
	if st := in.Machine("ns").DNS.Stats(); st.Queries != 1 || st.Answered != 1 {
		t.Errorf("ns DNS stats = %+v, want 1 answered query", st)
	}
	if st := in.Machine("client").Resolver.Stats(); st.Lookups != 1 || st.Sent != 1 {
		t.Errorf("client resolver stats = %+v", st)
	}
	// Everything drains: no connections left on either end.
	in.Driver().Drain()
	if got := in.Machine("client").Stack.TCP().Conns() + in.Machine("web").Stack.TCP().Conns(); got != 0 {
		t.Errorf("connections left after fetch: %d", got)
	}
}

// The acceptance bar for determinism: the same seed replays the whole
// resolve-then-fetch byte-identically — every link digest, and therefore
// the topology fingerprint, matches across runs.
func TestNamedServiceReplayDeterministic(t *testing.T) {
	fp, err := CheckReplay(3, func() (*Internet, error) { return namedStar(7) },
		func(in *Internet) error {
			body, err := fetchByName(in)
			if err != nil {
				return err
			}
			if body == "" {
				return errors.New("empty body")
			}
			in.Driver().Drain()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if fp == 0 {
		t.Error("zero fingerprint — no traffic digested")
	}
}

// Aliases repoint: AddName moves a service between machines and the next
// (cache-expired) resolve follows it.
func TestAddNameRepoints(t *testing.T) {
	in, err := namedStar(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.AddName("www", "web"); err != nil {
		t.Fatal(err)
	}
	client := in.Machine("client")
	resolve := func(name string) (netstack.IPAddr, error) {
		var ip netstack.IPAddr
		var rerr error
		done := false
		client.Resolver.LookupA(name, func(a []netstack.IPAddr, e error) {
			if e == nil {
				ip = a[0]
			}
			rerr, done = e, true
		})
		if !in.RunUntil(func() bool { return done }, 0) {
			return 0, errors.New("lookup hung")
		}
		return ip, rerr
	}
	ip, err := resolve("www.spin.test")
	if err != nil || ip != in.IP("web") {
		t.Fatalf("www -> %v, %v; want %v", ip, err, in.IP("web"))
	}
	in.AddName("www", "ns") // failover
	client.Resolver.FlushCache()
	ip, err = resolve("www.spin.test")
	if err != nil || ip != in.IP("ns") {
		t.Fatalf("repointed www -> %v, %v; want %v", ip, err, in.IP("ns"))
	}
	if _, err := resolve("gone.spin.test"); !errors.Is(err, netstack.ErrNameNotFound) {
		t.Errorf("absent name: %v", err)
	}
	if err := in.AddName("x", "nope"); err == nil {
		t.Error("AddName to unknown machine accepted")
	}
	// Removal: the alias stops resolving.
	in.RemoveName("www")
	client.Resolver.FlushCache()
	if _, err := resolve("www.spin.test"); !errors.Is(err, netstack.ErrNameNotFound) {
		t.Errorf("removed name still resolves: %v", err)
	}
	// Error paths: DNS is already enabled, and socket layers only exist for
	// known machines.
	if err := in.EnableDNS("web"); err == nil {
		t.Error("second EnableDNS accepted")
	}
	if _, err := in.Sockets("nope"); err == nil {
		t.Error("Sockets for unknown machine accepted")
	}
	if _, err := in.Dialer("nope"); err == nil {
		t.Error("Dialer for unknown machine accepted")
	}
}

// The foreground bugfix's acceptance scenario: a dial through a link whose
// frames are all dropped (a partitioned machine) returns ErrTimedOut in
// bounded virtual time — no infinite SYN retransmission — leaves no
// connection behind, and replays deterministically.
func TestDialPartitionedMachineTimesOut(t *testing.T) {
	build := func() (*Internet, error) {
		in, err := namedStar(11)
		if err != nil {
			return nil, err
		}
		// 100%-drop netem hook on the web spoke: the DNS still answers
		// (ns is reachable), but nothing reaches the web machine.
		in.Link("web~s0").AddHook(func(*FrameEvent) Verdict { return Drop })
		in.Machine("client").Stack.TCP().SetMaxRetx(2)
		return in, nil
	}
	drive := func(in *Internet) error {
		client := in.Machine("client")
		start := client.Clock.Now()
		_, err := fetchByName(in)
		if err == nil {
			return errors.New("fetch through a partition succeeded")
		}
		if !errors.Is(err, netstack.ErrTimedOut) {
			return errors.New("err = " + err.Error() + ", want ErrTimedOut")
		}
		// Bounded virtual time: resolve (~ms) + 200+400+800ms of capped
		// SYN backoff. Far below the 30s an uncapped dial would blow past.
		if elapsed := client.Clock.Now().Sub(start); elapsed > 2*sim.Second {
			return errors.New("timed-out dial took " + elapsed.String())
		}
		in.Driver().Drain()
		if got := client.Stack.TCP().Conns(); got != 0 {
			return errors.New("connections left after timeout")
		}
		return nil
	}
	if _, err := CheckReplay(3, build, drive); err != nil {
		t.Fatal(err)
	}
}
