package netstack

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"spin/internal/faultinject"
	"spin/internal/sim"
)

// TCPState is a connection state (RFC 793 subset).
type TCPState int

// Connection states.
const (
	StateClosed TCPState = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateLastAck
	StateTimeWait
)

func (s TCPState) String() string {
	names := []string{"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
		"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "LAST_ACK", "TIME_WAIT"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// DefaultMSS is the default maximum segment size (Ethernet-friendly).
const DefaultMSS = 1460

// rcvWindow is the fixed receive window advertised (bytes).
const rcvWindow = 32 * 1024

// retxTimeout is the base retransmission timeout; each unacknowledged
// retransmission doubles it (exponential backoff) up to retxBackoffCap
// doublings.
const retxTimeout = 200 * sim.Millisecond

// retxBackoffCap bounds the exponential backoff at retxTimeout << cap
// (6.4 s), so a long outage retries at a steady cadence instead of hours
// apart.
const retxBackoffCap = 5

// DefaultMaxRetx is the default retransmission cap: after this many
// unacknowledged retransmissions of the same data (or SYN) the connection
// is torn down with ErrTimedOut. With exponential backoff from retxTimeout
// the whole attempt is bounded at ~19 s of virtual time.
const DefaultMaxRetx = 6

// Errors surfaced by connections that fail rather than hang.
var (
	// ErrTimedOut reports that the retransmission cap was exhausted: the
	// peer (or the path to it) stayed silent through every backoff.
	ErrTimedOut = errors.New("netstack: connection timed out")
	// ErrClosed reports an operation on a closed connection — including a
	// Close in SYN_SENT that discards data queued before the handshake
	// completed.
	ErrClosed = errors.New("netstack: connection closed")
	// ErrReset reports that the peer reset the connection: it refused the
	// connection or gave up on it. It wraps ErrClosed.
	ErrReset = fmt.Errorf("%w: reset by peer", ErrClosed)
)

// timeWaitDelay is the TIME_WAIT linger before the connection is reaped.
const timeWaitDelay = 500 * sim.Millisecond

// serverISS is the deterministic initial send sequence for server-side
// connections (clients use 100); fixed values keep the simulation
// replayable.
const serverISS = 1000

// Connection table. Connections are split into a power-of-two number of
// shards by a hash of the 4-tuple key; each shard is an independently
// swapped copy-on-write snapshot, so connection setup or teardown copies
// one shard — a few entries — never the whole table.
// The table is sized by load alone: it starts at tcpMinShards shards and
// doubles whenever the average shard would hold more than tcpShardLoad
// entries, so an idle stack pays ~1 KB for it and a million connections
// end in 2^17 shards of ~8 entries. It never shrinks. The load trades the
// copy each insert pays against the size of the shard array
// (EXPERIMENTS.md, "Idle machine heap", has the measurements).
const (
	tcpMinShards = 64
	tcpShardLoad = 8
)

// Half-open (SYN received, final ACK pending) table bounds. A SYN costs one
// compact entry in a bounded table, syncookie-style — never a *Conn — so a
// SYN flood is capped at MaxHalfOpen entries of a few dozen bytes each.
const (
	synShards = 64
	// MaxHalfOpen bounds the half-open table across all shards; beyond it
	// the oldest entries are evicted (counted in TCPStats.HalfOpenEvicted).
	MaxHalfOpen         = 4096
	maxHalfOpenPerShard = MaxHalfOpen / synShards
	// synTTL evicts half-open entries whose final ACK never arrived.
	synTTL = 5 * sim.Second
)

// connKey packs the 4-tuple that identifies a connection — remote address,
// remote port, local port (the local address is the stack's own) — into one
// comparable word.
type connKey uint64

func tcpKey(remote IPAddr, remotePort, localPort uint16) connKey {
	return connKey(uint64(remote)<<32 | uint64(remotePort)<<16 | uint64(localPort))
}

// hash mixes the packed key (splitmix64 finalizer) so that sequential ports
// and addresses spread across shards.
func (k connKey) hash() uint64 {
	h := uint64(k)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// connTable is one generation of the connection table: a power-of-two
// array of shards indexed by the low bits of the key hash. A lookup loads
// the current generation with one atomic load; growth builds the next
// generation beside it and publishes it with one pointer swap.
type connTable struct {
	shards []connShard
	mask   uint64
}

func newConnTable(n int) *connTable {
	return &connTable{shards: make([]connShard, n), mask: uint64(n - 1)}
}

func (ct *connTable) shardFor(key connKey) *connShard {
	return &ct.shards[key.hash()&ct.mask]
}

// connShard is one slice of the connection table: a copy-on-write sorted
// slice behind an atomic pointer. Lookup is a lock-free load plus binary
// search (zero allocations); insert/remove copy the slice under the shard
// mutex and swap.
type connShard struct {
	mu  sync.Mutex
	tab atomic.Pointer[[]connEntry]
}

type connEntry struct {
	key connKey
	c   *Conn
}

// snapshot returns the shard's current entries (nil when empty).
func (sh *connShard) snapshot() []connEntry {
	if tp := sh.tab.Load(); tp != nil {
		return *tp
	}
	return nil
}

// publish swaps in the shard's next snapshot; an empty shard holds nil.
func (sh *connShard) publish(entries []connEntry) {
	if len(entries) == 0 {
		sh.tab.Store(nil)
		return
	}
	p := new([]connEntry)
	*p = entries
	sh.tab.Store(p)
}

// searchConns returns the position of key in the sorted entries, or where
// it would be inserted, and whether it is present.
func searchConns(tab []connEntry, key connKey) (int, bool) {
	lo, hi := 0, len(tab)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if tab[mid].key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(tab) && tab[lo].key == key
}

// insert publishes key -> c in the shard, reporting false (and changing
// nothing) if key is already present.
func (sh *connShard) insert(key connKey, c *Conn) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := sh.snapshot()
	pos, found := searchConns(old, key)
	if found {
		return false
	}
	next := make([]connEntry, len(old)+1)
	copy(next, old[:pos])
	next[pos] = connEntry{key: key, c: c}
	copy(next[pos+1:], old[pos:])
	sh.publish(next)
	return true
}

// remove withdraws key from the shard, reporting whether it was present.
func (sh *connShard) remove(key connKey) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := sh.snapshot()
	pos, found := searchConns(old, key)
	if !found {
		return false
	}
	next := make([]connEntry, len(old)-1)
	copy(next, old[:pos])
	copy(next[pos:], old[pos+1:])
	sh.publish(next)
	return true
}

// synEntry is the compact half-open record for a SYN awaiting its final
// ACK: just enough to resend the SYN-ACK and materialize the connection.
type synEntry struct {
	rcvNxt uint32   // peer ISS + 1
	iss    uint32   // our initial send sequence for the SYN-ACK
	wnd    int      // peer's advertised window from the SYN
	at     sim.Time // arrival, for TTL/oldest eviction
}

type synShard struct {
	mu sync.Mutex
	m  map[connKey]synEntry // made on the shard's first SYN
}

// Conn is one TCP connection endpoint.
type Conn struct {
	tcp        *TCP
	remote     IPAddr
	localPort  uint16
	remotePort uint16

	// state, the retransmission counters and the terminal error are
	// atomics: the state machine mutates them from the simulation
	// goroutine while observers (tests, debuggers, the socket adapters'
	// torture monitors) read them from anywhere.
	state         atomic.Int32
	retransmits   atomic.Int64
	zeroWndProbes atomic.Int64
	connErr       atomic.Pointer[error]

	mss int

	// Send side.
	sndUna, sndNxt uint32
	snd            *sendState // queued bytes and in-flight segments
	cwnd           int        // congestion window, segments
	ssthresh       int        // slow-start threshold, segments
	sndWnd         int        // peer's advertised window, bytes
	retxEv         *sim.Event
	// retxAttempts counts consecutive unacknowledged retransmissions of
	// the oldest outstanding data (or SYN); any forward ACK progress
	// resets it. It selects the backoff and enforces the MaxRetx cap.
	retxAttempts int

	// Receive side.
	rcvNxt uint32

	delivery DeliveryCost

	// OnConnect fires when the connection reaches ESTABLISHED.
	OnConnect func(*Conn)
	// OnData receives in-order payload bytes.
	OnData func(*Conn, []byte)
	// OnClose fires when the connection fully closes.
	OnClose func(*Conn)

	// acceptCb is the listener's accept callback. On server-side
	// connections it is published on the Conn before the Conn enters the
	// connection table, so a concurrent delivery can never observe the
	// connection without it.
	acceptCb func(*Conn)

	peerClosed bool
	closed     bool

	// segs counts the segments this connection has sent. A caller that
	// owes the peer an ACK compares it across a callback: any segment the
	// callback sent carried rcvNxt, so the ACK rode on it.
	segs uint32
}

// State reports the connection state. Safe to call from any goroutine.
func (c *Conn) State() TCPState { return TCPState(c.state.Load()) }

func (c *Conn) setState(s TCPState) { c.state.Store(int32(s)) }

// Remote reports the peer address/port.
func (c *Conn) Remote() (IPAddr, uint16) { return c.remote, c.remotePort }

// LocalPort reports the local port of the connection's 4-tuple.
func (c *Conn) LocalPort() uint16 { return c.localPort }

// Retransmits reports how many segments were retransmitted. Safe to call
// from any goroutine.
func (c *Conn) Retransmits() int64 { return c.retransmits.Load() }

// ZeroWindowProbes reports how many persist probes were sent against a
// peer's zero-window advertisement. Safe to call from any goroutine.
func (c *Conn) ZeroWindowProbes() int64 { return c.zeroWndProbes.Load() }

// Err reports why the connection failed: ErrTimedOut after retransmission
// exhaustion, ErrReset when the peer reset it, ErrClosed (wrapped) when a
// close discarded queued data, nil for connections that closed cleanly or
// are still alive.
func (c *Conn) Err() error {
	if p := c.connErr.Load(); p != nil {
		return *p
	}
	return nil
}

// setErr records the connection's terminal error; the first one wins.
func (c *Conn) setErr(err error) {
	c.connErr.CompareAndSwap(nil, &err)
}

// Listener accepts inbound connections on a port.
type Listener struct {
	port   uint16
	cost   DeliveryCost
	accept func(*Conn)
	owner  string
}

// TCP is the stack's TCP module. The paper notes SPIN used the DEC OSF/1
// TCP engine as a kernel-asserted extension; here the engine is implemented
// natively, which only strengthens the reproduction.
//
// The connection table is sharded (see connTable): the per-segment lookup
// is a lock-free snapshot load plus binary search, and setup/teardown
// writers contend only within one shard. The listener table is a single
// copy-on-write map (listeners change rarely). Individual Conn state
// machines remain single-threaded — segments for one connection must be
// delivered from the simulation goroutine, since handling them transmits
// and arms timers.
type TCP struct {
	stack *Stack

	// mu serializes listener-table writers and the ephemeral-port cursor.
	mu        sync.Mutex
	listeners atomic.Pointer[map[uint16]*Listener]
	nextPort  uint16 // guarded by mu

	// conns is the current connection-table generation. Inserts and
	// removes hold growMu shared (plus their shard's mutex); growth holds
	// it exclusively, so no write is lost while shards are split. nconns
	// counts the table's entries.
	conns  atomic.Pointer[connTable]
	growMu sync.RWMutex
	nconns atomic.Int64

	syn []synShard

	// maxRetx is the per-connection retransmission cap (DefaultMaxRetx
	// unless overridden with SetMaxRetx before connections exist).
	maxRetx int

	accepted        atomic.Int64
	resets          atomic.Int64
	halfOpenEvicted atomic.Int64
	timedOut        atomic.Int64
}

func newTCP(s *Stack) *TCP {
	t := &TCP{
		stack:    s,
		nextPort: 30000,
		syn:      make([]synShard, synShards),
		maxRetx:  DefaultMaxRetx,
	}
	t.conns.Store(newConnTable(tcpMinShards))
	emptyListeners := make(map[uint16]*Listener)
	t.listeners.Store(&emptyListeners)
	return t
}

func (t *TCP) synShardFor(key connKey) *synShard {
	return &t.syn[(key.hash()>>32)&(synShards-1)]
}

// lookup finds the connection for key: one atomic load of the table, one
// of the shard snapshot, and a binary search — lock- and allocation-free.
func (t *TCP) lookup(key connKey) *Conn {
	tab := t.conns.Load().shardFor(key).snapshot()
	if pos, found := searchConns(tab, key); found {
		return tab[pos].c
	}
	return nil
}

// insertConn publishes key -> c in its shard's sorted snapshot. The copy
// touches one shard only, so setup cost is O(table/shards), not O(table).
// It reports false — without modifying the table — if key is already
// present (a concurrent materialization of the same connection won). An
// insert that leaves the table overloaded grows it.
func (t *TCP) insertConn(key connKey, c *Conn) bool {
	t.growMu.RLock()
	ct := t.conns.Load()
	ok := ct.shardFor(key).insert(key, c)
	var n int64
	if ok {
		n = t.nconns.Add(1)
	}
	t.growMu.RUnlock()
	if n > tcpShardLoad*int64(len(ct.shards)) {
		t.grow()
	}
	return ok
}

// removeConn withdraws key from its shard's snapshot, reporting whether it
// was present.
func (t *TCP) removeConn(key connKey) bool {
	t.growMu.RLock()
	defer t.growMu.RUnlock()
	if !t.conns.Load().shardFor(key).remove(key) {
		return false
	}
	t.nconns.Add(-1)
	return true
}

// grow doubles the connection table if it is still overloaded. Shard i of
// the old table splits into shards i and i+n of the new one by the next
// bit of the same hash, each half keeping its sorted order. Writers are
// excluded for the whole split, so the new table holds exactly the old
// one's entries when one pointer swap publishes it; lookups never block,
// and one still holding the old table reads a snapshot that was current
// at the swap.
func (t *TCP) grow() {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	old := t.conns.Load()
	n := len(old.shards)
	if t.nconns.Load() <= tcpShardLoad*int64(n) {
		return // another writer grew it first
	}
	next := newConnTable(2 * n)
	for i := range old.shards {
		// One array per old shard: the entries staying in shard i, then
		// those moving to shard i+n, each run still sorted.
		entries := old.shards[i].snapshot()
		split := make([]connEntry, 0, len(entries))
		for _, e := range entries {
			if e.key.hash()&uint64(n) == 0 {
				split = append(split, e)
			}
		}
		stay := len(split)
		for _, e := range entries {
			if e.key.hash()&uint64(n) != 0 {
				split = append(split, e)
			}
		}
		next.shards[i].publish(split[:stay:stay])
		next.shards[i+n].publish(split[stay:])
	}
	t.conns.Store(next)
}

// Listen accepts connections on port; accept runs when a connection reaches
// ESTABLISHED.
func (t *TCP) Listen(port uint16, cost DeliveryCost, accept func(*Conn)) error {
	return t.ListenOwned("", port, cost, accept)
}

// ListenOwned is Listen with a recorded owning principal, so the listener is
// withdrawn by UnlistenOwner when the owner's domain is destroyed.
func (t *TCP) ListenOwned(owner string, port uint16, cost DeliveryCost, accept func(*Conn)) error {
	if cost == nil {
		cost = InKernelDelivery
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.listeners.Load()
	if _, dup := old[port]; dup {
		return fmt.Errorf("netstack: TCP port %d in use", port)
	}
	next := make(map[uint16]*Listener, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[port] = &Listener{port: port, cost: cost, accept: accept, owner: owner}
	t.listeners.Store(&next)
	return nil
}

// Unlisten stops accepting on port.
func (t *TCP) Unlisten(port uint16) {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.listeners.Load()
	if _, ok := old[port]; !ok {
		return
	}
	next := make(map[uint16]*Listener, len(old))
	for k, v := range old {
		if k != port {
			next[k] = v
		}
	}
	t.listeners.Store(&next)
}

// UnlistenOwner withdraws every listener registered under owner in one
// snapshot swap — the TCP module's teardown reclaimer. Established
// connections accepted earlier run their normal state machines to
// completion; only the ability to accept new ones is revoked. It returns
// the number of listeners withdrawn.
func (t *TCP) UnlistenOwner(owner string) int {
	if owner == "" {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.listeners.Load()
	next := make(map[uint16]*Listener, len(old))
	removed := 0
	for k, v := range old {
		if v.owner == owner {
			removed++
			continue
		}
		next[k] = v
	}
	if removed > 0 {
		t.listeners.Store(&next)
	}
	return removed
}

// Connect opens a connection to dst:port. The returned Conn is in SYN_SENT;
// OnConnect fires at ESTABLISHED.
//
// Fault site "net.dial" fires per connect attempt: KindError fails the
// dial before any connection state exists (the caller sees the injected
// error synchronously), KindDrop loses the initial SYN — the handshake
// then completes late through the retransmission machinery, or times the
// connection out at the cap.
func (t *TCP) Connect(dst IPAddr, port uint16, cost DeliveryCost) (*Conn, error) {
	if cost == nil {
		cost = InKernelDelivery
	}
	dialFault := t.stack.disp.InjectorInstalled().Fire("net.dial")
	if dialFault.Kind == faultinject.KindError {
		return nil, fmt.Errorf("netstack: dial %v:%d: %w", dst, port, dialFault.Err)
	}
	t.mu.Lock()
	// A local port only has to be unique per 4-tuple (full demux), so the
	// same ephemeral port serves many remotes and outbound connection
	// count is not capped by the port range. The scan is bounded: with
	// fewer than 2^16 connections to this exact remote endpoint it
	// terminates in a few probes.
	var key connKey
	local, found := t.nextPort, false
	for i := 0; i < 1<<16; i++ {
		t.nextPort++
		if t.nextPort < 30000 {
			t.nextPort = 30000 // wrapped uint16: stay out of the low range
		}
		key = tcpKey(dst, port, t.nextPort)
		if t.lookup(key) == nil {
			local, found = t.nextPort, true
			break
		}
	}
	if !found {
		t.mu.Unlock()
		return nil, fmt.Errorf("netstack: no free local port for %v:%d: %w", dst, port, ErrPortsExhausted)
	}
	c := &Conn{
		tcp:    t,
		remote: dst, localPort: local, remotePort: port,
		mss: DefaultMSS, cwnd: 1, ssthresh: 16, sndWnd: rcvWindow,
		delivery: cost,
		sndUna:   100, sndNxt: 100,
	}
	c.setState(StateSynSent)
	t.insertConn(key, c)
	t.mu.Unlock()
	if dialFault.Kind != faultinject.KindDrop {
		c.sendSeg(c.seg(FlagSYN, c.sndNxt, 0))
	}
	c.sndNxt++
	c.armRetx()
	return c, nil
}

// Send queues the concatenation of parts as one write. The bytes are
// copied once, into the connection's send queue; the caller keeps parts.
// Segmentation does not depend on how a write is split into parts.
func (c *Conn) Send(parts ...[]byte) error {
	st := c.State()
	if c.closed || st != StateEstablished && st != StateCloseWait {
		if !c.closed && st == StateSynSent {
			// Queue until established.
			c.sendq().q.write(parts...)
			return nil
		}
		if c.closed || st == StateClosed {
			return fmt.Errorf("netstack: send: %w", ErrClosed)
		}
		return errors.New("netstack: send on non-established connection")
	}
	c.sendq().q.write(parts...)
	c.pump()
	return nil
}

// sendq returns the connection's send state, making it on first use.
func (c *Conn) sendq() *sendState {
	if c.snd == nil {
		c.snd = new(sendState)
	}
	return c.snd
}

// Close begins an orderly shutdown. A close before the handshake completed
// aborts the connection; if data was queued behind the SYN (Send in
// SYN_SENT) it is discarded and the loss is reported as an error wrapping
// ErrClosed — the bytes were never acknowledged, or even sent.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	switch c.State() {
	case StateEstablished:
		c.setState(StateFinWait1)
	case StateCloseWait:
		c.setState(StateLastAck)
	default:
		var err error
		if n := c.snd.unsent(); c.State() == StateSynSent && n > 0 {
			err = fmt.Errorf("%w: %d queued bytes discarded before handshake completed",
				ErrClosed, n)
			c.snd = nil
			c.setErr(err)
		}
		c.teardown() // cancels any armed retransmit timer
		return err
	}
	// The FIN rides after any queued data: pump sends it once the queue
	// has drained, now or from a later ACK.
	c.pump()
	return nil
}

func (c *Conn) sendFIN() {
	c.sendSeg(c.seg(FlagFIN|FlagACK, c.sndNxt, c.rcvNxt))
	s := c.sendq()
	s.inflight = append(s.inflight, segment{seq: c.sndNxt, fin: true})
	c.sndNxt++
	c.armRetx()
}

// pump sends as much buffered data as the congestion and peer windows
// allow, then — once a closing connection's queue has drained — its one
// FIN.
func (c *Conn) pump() {
	st := c.State()
	if st != StateEstablished && st != StateCloseWait &&
		st != StateFinWait1 && st != StateLastAck {
		return
	}
	for c.snd.unsent() > 0 {
		if c.sndWnd == 0 {
			// Peer advertised a zero window: pause, and let the
			// retransmission timer send persist probes (the peer owes us
			// no ACK that would reopen the window unprompted).
			c.armRetx()
			return
		}
		inFlightBytes := int(c.sndNxt - c.sndUna)
		windowBytes := c.cwnd * c.mss
		if windowBytes > c.sndWnd {
			windowBytes = c.sndWnd
		}
		if inFlightBytes >= windowBytes {
			return // window full; ACKs will re-pump
		}
		n := min(c.mss, c.snd.unsent(), windowBytes-inFlightBytes)
		if n <= 0 {
			return
		}
		c.sendNew(n)
	}
	if st := c.State(); (st == StateFinWait1 || st == StateLastAck) && c.snd.unsent() == 0 && !c.snd.finInflight() {
		c.sendFIN()
	}
}

// sendNew transmits the next n unsent bytes as one new segment at sndNxt.
func (c *Conn) sendNew(n int) {
	s := c.snd
	c.sendSeg(c.dataSeg(FlagACK, c.sndNxt, s.sent, n))
	s.inflight = append(s.inflight, segment{seq: c.sndNxt, n: uint32(n)})
	s.sent += n
	c.sndNxt += uint32(n)
	c.armRetx()
}

// seg allocates a pooled segment, without payload, carrying this
// connection's receive window.
func (c *Conn) seg(flags TCPFlags, seq, ack uint32) *Packet {
	p := AllocPacket()
	p.Flags, p.Seq, p.Ack, p.Window = flags, seq, ack, rcvWindow
	return p
}

// dataSeg allocates a pooled segment at seq whose payload is the n send
// queue bytes from offset off, copied straight into the packet's buffer.
func (c *Conn) dataSeg(flags TCPFlags, seq uint32, off, n int) *Packet {
	p := c.seg(flags, seq, c.rcvNxt)
	if n > 0 {
		c.snd.q.read(p.resizePayload(n), off)
	}
	return p
}

// sendSeg fills in addressing and transmits one segment, donating the
// packet to the stack.
func (c *Conn) sendSeg(p *Packet) {
	c.segs++
	p.Src = c.tcp.stack.IP
	p.Dst = c.remote
	p.Proto = ProtoTCP
	p.SrcPort = c.localPort
	p.DstPort = c.remotePort
	p.TTL = 32
	_ = c.tcp.stack.SendIP(p)
}

// rto is the current retransmission timeout: the base doubled per
// consecutive unacknowledged retransmission, capped at retxBackoffCap
// doublings.
func (c *Conn) rto() sim.Duration {
	shift := c.retxAttempts
	if shift > retxBackoffCap {
		shift = retxBackoffCap
	}
	return retxTimeout << shift
}

func (c *Conn) armRetx() {
	if c.retxEv != nil && !c.retxEv.Cancelled() {
		return
	}
	c.retxEv = c.tcp.stack.engine.After(c.rto(), c.onRetxTimeout)
}

func (c *Conn) cancelRetx() {
	if c.retxEv != nil {
		c.retxEv.Cancel()
		c.retxEv = nil
	}
}

// lossBackoff is the response to a retransmission timeout: multiplicative
// decrease, back to slow start.
func (c *Conn) lossBackoff() {
	c.ssthresh = c.cwnd / 2
	if c.ssthresh < 1 {
		c.ssthresh = 1
	}
	c.cwnd = 1
	c.retransmits.Add(1)
}

// retxExhausted enforces the retransmission cap: past tcp.maxRetx
// consecutive unacknowledged retransmissions the connection fails with
// ErrTimedOut — teardown fires OnClose and removes it from the shard
// table. A synchronized connection first sends its peer a RST, so a peer
// that is alive but unreachable in one direction learns the stream is
// dead instead of waiting on it forever. Reports true when the caller
// must stop retransmitting.
func (c *Conn) retxExhausted() bool {
	if c.retxAttempts < c.tcp.maxRetx {
		return false
	}
	c.tcp.timedOut.Add(1)
	c.setErr(ErrTimedOut)
	if c.State() != StateSynSent {
		c.sendSeg(c.seg(FlagRST, c.sndNxt, 0))
	}
	c.teardown()
	return true
}

func (c *Conn) onRetxTimeout() {
	c.retxEv = nil
	switch {
	case c.State() == StateSynSent:
		if c.retxExhausted() {
			return
		}
		c.retxAttempts++
		c.lossBackoff()
		c.sendSeg(c.seg(FlagSYN, c.sndUna, 0))
		c.armRetx()
	case c.snd.outstanding() > 0:
		if c.retxExhausted() {
			return
		}
		c.retxAttempts++
		c.lossBackoff()
		// The oldest segment's bytes start the send queue.
		s := c.snd.inflight[0]
		flags := FlagACK
		if s.fin {
			flags |= FlagFIN
		}
		c.sendSeg(c.dataSeg(flags, s.seq, 0, int(s.n)))
		c.armRetx()
	case c.sndWnd == 0 && c.snd.unsent() > 0 && c.State() != StateClosed:
		// Zero-window persist (RFC 1122 §4.2.2.17): the peer advertised
		// window 0 and will send nothing further on its own; probe with a
		// single byte to elicit an ACK carrying the reopened window.
		// Probes are deliberately uncapped — the peer is alive and ACKing,
		// just full — so they never trip the MaxRetx teardown.
		c.zeroWndProbes.Add(1)
		c.sendNew(1)
	}
}

// rxCtx carries the per-batch receive context (see stack.go); deliver
// threads it down so the tracer and injector snapshot loads amortize across
// a drained batch.

// Deliver hands one TCP segment directly to the module, as if it had
// arrived addressed to this stack with lower layers already charged — the
// direct-drive entry point for tests and benchmarks (the C10M scaling
// experiment pushes a million handshakes through it without a wire). The
// packet is borrowed: Deliver does not release it.
func (t *TCP) Deliver(pkt *Packet) { t.deliver(t.stack.rxctx(), pkt) }

// deliver routes one inbound TCP segment, feeding the per-segment latency
// series when tracing is enabled.
func (t *TCP) deliver(ctx rxCtx, pkt *Packet) {
	f := ctx.inj.Fire("net.tcp.deliver")
	if f.Kind == faultinject.KindDrop || f.Kind == faultinject.KindError {
		return // injected segment loss; retransmission recovers
	}
	if ctx.tr != nil {
		start := t.stack.clock.Now()
		defer func() {
			ctx.tr.Observe("net.tcp.deliver", t.stack.clock.Now().Sub(start))
		}()
	}
	t.deliver1(pkt)
}

func (t *TCP) deliver1(pkt *Packet) {
	key := tcpKey(pkt.Src, pkt.SrcPort, pkt.DstPort)
	if c := t.lookup(key); c != nil {
		c.handle(pkt)
		return
	}
	switch {
	case pkt.Flags&FlagSYN != 0 && pkt.Flags&FlagACK == 0:
		// A SYN to a listening port records a compact half-open entry —
		// no *Conn until the final ACK proves the peer is real.
		if l := (*t.listeners.Load())[pkt.DstPort]; l != nil {
			t.onSyn(key, pkt)
			return
		}
	case pkt.Flags&FlagACK != 0:
		if e, ok := t.takeSyn(key); ok {
			if pkt.Ack == e.iss+1 {
				t.completeHandshake(key, e, pkt)
				return
			}
			// Wrong ACK for the half-open entry: the entry is consumed
			// (the peer is confused or hostile) and the segment falls
			// through to a reset.
		} else if c := t.lookup(key); c != nil {
			// Lost a materialization race: a concurrent delivery of the
			// same final ACK established the connection between our two
			// lookups.
			c.handle(pkt)
			return
		}
	}
	if pkt.Flags&FlagRST == 0 {
		t.reset(pkt)
	}
}

// onSyn records (or refreshes) the half-open entry for a SYN and answers
// with a SYN-ACK. A duplicate SYN — ours was lost, or the client
// retransmitted — resends the SYN-ACK with the original ISS.
func (t *TCP) onSyn(key connKey, pkt *Packet) {
	sh := t.synShardFor(key)
	sh.mu.Lock()
	e, dup := sh.m[key]
	if !dup {
		if sh.m == nil {
			sh.m = make(map[connKey]synEntry)
		}
		if len(sh.m) >= maxHalfOpenPerShard {
			t.evictSynLocked(sh)
		}
		e = synEntry{rcvNxt: pkt.Seq + 1, iss: serverISS, wnd: pkt.Window, at: t.stack.clock.Now()}
		sh.m[key] = e
	}
	sh.mu.Unlock()

	synack := AllocPacket()
	synack.Src, synack.Dst, synack.Proto = t.stack.IP, pkt.Src, ProtoTCP
	synack.SrcPort, synack.DstPort = pkt.DstPort, pkt.SrcPort
	synack.Flags, synack.Seq, synack.Ack, synack.Window = FlagSYN|FlagACK, e.iss, e.rcvNxt, rcvWindow
	synack.TTL = 32
	_ = t.stack.SendIP(synack)
}

// takeSyn removes and returns the half-open entry for key, if present.
func (t *TCP) takeSyn(key connKey) (synEntry, bool) {
	sh := t.synShardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[key]
	if ok {
		delete(sh.m, key)
	}
	return e, ok
}

// evictSynLocked makes room in a full half-open shard: entries past synTTL
// go first, then the oldest. Callers hold sh.mu.
func (t *TCP) evictSynLocked(sh *synShard) {
	now := t.stack.clock.Now()
	for k, e := range sh.m {
		if now.Sub(e.at) > synTTL {
			delete(sh.m, k)
			t.halfOpenEvicted.Add(1)
		}
	}
	if len(sh.m) < maxHalfOpenPerShard {
		return
	}
	var oldestKey connKey
	var oldestAt sim.Time
	first := true
	for k, e := range sh.m {
		if first || e.at < oldestAt {
			oldestKey, oldestAt, first = k, e.at, false
		}
	}
	if !first {
		delete(sh.m, oldestKey)
		t.halfOpenEvicted.Add(1)
	}
}

// completeHandshake materializes the connection for a half-open entry whose
// final ACK arrived — the first point a server-side *Conn exists. The
// accept callback is published on the Conn before it enters the connection
// table, so no concurrent delivery can reach a connection without it.
func (t *TCP) completeHandshake(key connKey, e synEntry, pkt *Packet) {
	l := (*t.listeners.Load())[pkt.DstPort]
	if l == nil {
		// Listener withdrawn between SYN and ACK.
		t.reset(pkt)
		return
	}
	c := &Conn{
		tcp:    t,
		remote: pkt.Src, localPort: pkt.DstPort, remotePort: pkt.SrcPort,
		mss: DefaultMSS, cwnd: 1, ssthresh: 16,
		sndWnd:   e.wnd,
		delivery: l.cost,
		sndUna:   e.iss + 1, sndNxt: e.iss + 1,
		rcvNxt:   e.rcvNxt,
		acceptCb: l.accept,
	}
	c.setState(StateEstablished)
	if !t.insertConn(key, c) {
		// A concurrent delivery of the same final ACK materialized the
		// connection first; hand the segment to the winner.
		if w := t.lookup(key); w != nil {
			w.handle(pkt)
		}
		return
	}
	t.accepted.Add(1)
	if c.acceptCb != nil {
		c.acceptCb(c)
	}
	if c.OnConnect != nil {
		c.OnConnect(c)
	}
	// The ACK may carry data or FIN; run it through the normal machine.
	c.handle(pkt)
}

// reset sends RST for an unexpected segment, in the two RFC 793 forms: a
// segment carrying an ACK is refuted with Seq = its ACK number; a segment
// without one (a bare SYN to a closed port) gets Seq 0 plus an ACK of
// everything it occupied, so the peer can match the RST to its send.
func (t *TCP) reset(pkt *Packet) {
	t.resets.Add(1)
	rst := AllocPacket()
	rst.Src, rst.Dst, rst.Proto = t.stack.IP, pkt.Src, ProtoTCP
	rst.SrcPort, rst.DstPort = pkt.DstPort, pkt.SrcPort
	rst.TTL = 32
	if pkt.Flags&FlagACK != 0 {
		rst.Flags = FlagRST
		rst.Seq = pkt.Ack
	} else {
		seglen := uint32(len(pkt.Payload))
		if pkt.Flags&FlagSYN != 0 {
			seglen++
		}
		if pkt.Flags&FlagFIN != 0 {
			seglen++
		}
		rst.Flags = FlagRST | FlagACK
		rst.Seq = 0
		rst.Ack = pkt.Seq + seglen
	}
	_ = t.stack.SendIP(rst)
}

// handle runs the per-connection state machine for one segment.
func (c *Conn) handle(pkt *Packet) {
	c.delivery(c.tcp.stack.clock, pkt)
	if pkt.Flags&FlagRST != 0 {
		// A reset is the connection's error unless both directions had
		// already finished: in LAST_ACK or TIME_WAIT it only cuts the
		// close short (RFC 793).
		if st := c.State(); st != StateLastAck && st != StateTimeWait {
			c.setErr(ErrReset)
		}
		c.teardown()
		return
	}
	// The advertised window is taken at face value — including zero. A
	// zero window pauses pump(), and the persist probe in onRetxTimeout
	// keeps testing for it to reopen.
	c.sndWnd = pkt.Window
	if c.State() == StateSynSent {
		if pkt.Flags&(FlagSYN|FlagACK) == FlagSYN|FlagACK && pkt.Ack == c.sndNxt {
			c.sndUna = pkt.Ack
			c.rcvNxt = pkt.Seq + 1
			c.setState(StateEstablished)
			c.retxAttempts = 0
			c.cancelRetx()
			segs := c.segs
			if c.OnConnect != nil {
				c.OnConnect(c)
			}
			c.pump()
			// The handshake's final ACK rides on the first data segment
			// when OnConnect or the queue had one to send.
			c.ackUnlessSent(segs)
		}
		return
	}

	if pkt.Flags&FlagACK != 0 {
		c.onAck(pkt.Ack)
	}
	if len(pkt.Payload) > 0 {
		c.onData(pkt)
	}
	if pkt.Flags&FlagFIN != 0 {
		c.onFIN(pkt)
	}
}

func (c *Conn) onAck(ack uint32) {
	if int32(ack-c.sndUna) <= 0 {
		return // duplicate/old
	}
	c.sndUna = ack
	// Forward progress: the peer is alive, so the retransmission backoff
	// and cap restart from scratch for whatever is still outstanding.
	c.retxAttempts = 0
	// Drop fully acknowledged segments and free their bytes.
	acked, finAcked := c.snd.ack(ack)
	for ; acked > 0; acked-- {
		// Congestion window growth per ACKed segment: slow start below
		// ssthresh, then linear.
		if c.cwnd < c.ssthresh {
			c.cwnd++
		} else if c.cwnd < 128 {
			c.cwnd++ // coarse linear growth per window-full
		}
	}
	if c.snd.outstanding() == 0 {
		c.cancelRetx()
	}
	if finAcked {
		switch c.State() {
		case StateFinWait1:
			c.setState(StateFinWait2)
		case StateLastAck:
			c.teardown()
			return
		}
	}
	c.pump()
}

func (c *Conn) onData(pkt *Packet) {
	if pkt.Seq != c.rcvNxt {
		// Out of order: re-ACK what we have; sender retransmits.
		c.sendSeg(c.seg(FlagACK, c.sndNxt, c.rcvNxt))
		return
	}
	c.rcvNxt += uint32(len(pkt.Payload))
	segs := c.segs
	if c.OnData != nil {
		c.OnData(c, pkt.Payload)
	}
	c.ackUnlessSent(segs) // a response sent by OnData carries the ACK
}

// ackUnlessSent sends a pure ACK of rcvNxt unless the connection has sent
// a segment since its segment count was segs: every segment after the
// handshake carries rcvNxt, so that one already acknowledged it. Only
// in-order progress may piggyback this way; duplicate ACKs (out-of-order
// data, a retransmitted FIN) are always sent.
func (c *Conn) ackUnlessSent(segs uint32) {
	if c.segs == segs {
		c.sendSeg(c.seg(FlagACK, c.sndNxt, c.rcvNxt))
	}
}

func (c *Conn) onFIN(pkt *Packet) {
	if c.peerClosed || pkt.Seq+uint32(len(pkt.Payload)) != c.rcvNxt {
		// A FIN that overtook missing data, or a retransmitted one whose
		// ACK was lost: re-ACK what we hold and change nothing else. The
		// sender retransmits the hole, then the FIN.
		c.sendSeg(c.seg(FlagACK, c.sndNxt, c.rcvNxt))
		return
	}
	c.rcvNxt++
	c.peerClosed = true
	segs := c.segs
	switch c.State() {
	case StateEstablished:
		c.setState(StateCloseWait)
	case StateFinWait1:
		// Simultaneous close; treat as FIN_WAIT_2 -> TIME_WAIT.
		c.setState(StateTimeWait)
		c.startTimeWait()
	case StateFinWait2:
		c.setState(StateTimeWait)
		c.startTimeWait()
	}
	if c.OnClose != nil && c.State() == StateCloseWait {
		c.OnClose(c) // a FIN sent by OnClose's Close carries the ACK
	}
	c.ackUnlessSent(segs)
}

func (c *Conn) startTimeWait() {
	c.tcp.stack.engine.After(timeWaitDelay, func() {
		c.teardown()
	})
}

// teardown removes the connection from its shard.
func (c *Conn) teardown() {
	if c.State() == StateClosed {
		return
	}
	c.cancelRetx()
	prev := c.State()
	c.setState(StateClosed)
	c.tcp.removeConn(tcpKey(c.remote, c.remotePort, c.localPort))
	if c.OnClose != nil && prev != StateCloseWait {
		c.OnClose(c)
	}
}

// SetMaxRetx overrides the retransmission cap for connections created
// after the call (tests shorten it; 0 or negative restores the default).
func (t *TCP) SetMaxRetx(n int) {
	if n <= 0 {
		n = DefaultMaxRetx
	}
	t.maxRetx = n
}

// Conns reports the number of live connections: one table-wide counter,
// exact under concurrent setup/teardown.
func (t *TCP) Conns() int { return int(t.nconns.Load()) }

// TCPStats is a point-in-time summary of the TCP module.
type TCPStats struct {
	Conns           int   // connections in the shard table
	HalfOpen        int   // half-open entries awaiting their final ACK
	HalfOpenEvicted int64 // half-open entries dropped by the bounded table
	Accepted        int64 // server-side connections materialized by a final ACK
	Resets          int64 // RSTs sent for unexpected segments
	TimedOut        int64 // connections torn down by the retransmission cap
}

// Stats snapshots the module counters.
func (t *TCP) Stats() TCPStats {
	st := TCPStats{
		Conns:           t.Conns(),
		HalfOpenEvicted: t.halfOpenEvicted.Load(),
		Accepted:        t.accepted.Load(),
		Resets:          t.resets.Load(),
		TimedOut:        t.timedOut.Load(),
	}
	for i := range t.syn {
		sh := &t.syn[i]
		sh.mu.Lock()
		st.HalfOpen += len(sh.m)
		sh.mu.Unlock()
	}
	return st
}
