package netstack

import (
	"sync"
	"sync/atomic"
	"testing"

	"spin/internal/dispatch"
	"spin/internal/sim"
)

// Connection-table growth torture: run with -race. Writers insert and
// remove keys while the table doubles under them; lock-free readers check
// every key whose fate is fixed for the whole lookup. Writers publish
// progress through atomics around each write, so a reader that sees it is
// ordered after (or before) the write it names.
func TestConnTableGrowthTorture(t *testing.T) {
	eng := sim.NewEngine()
	st, err := NewStack("grow", Addr(10, 0, 0, 1), eng, &sim.SPINProfile, dispatch.New(eng, &sim.SPINProfile))
	if err != nil {
		t.Fatal(err)
	}
	tcp := st.TCP()
	startShards := len(tcp.conns.Load().shards)

	const writers, perWriter, readers = 4, 4000, 2
	key := func(w, i int) connKey { return tcpKey(Addr(10, byte(w), byte(i>>8), byte(i)), 4000, 80) }
	conns := make([][]*Conn, writers)
	for w := range conns {
		conns[w] = make([]*Conn, perWriter)
		for i := range conns[w] {
			conns[w][i] = &Conn{}
		}
	}
	// Phase 1: writer w inserts keys 0..perWriter-1 in order and, after
	// each odd key, removes the even key before it. Phase 2: writer w
	// removes its odd keys in order. inserted[w] counts keys inserted.
	// Keys of parity p are removed in order of i/2: removing[w][p] counts
	// removals begun, removed[w][p] removals finished.
	var inserted [writers]atomic.Int64
	var removing, removed [writers][2]atomic.Int64
	var stop atomic.Bool
	var errs atomic.Int64
	fail := func(format string, args ...any) {
		if errs.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
	}
	remove := func(w, i int) {
		removing[w][i%2].Add(1)
		if !tcp.removeConn(key(w, i)) {
			fail("writer %d key %d: remove found nothing", w, i)
		}
		removed[w][i%2].Add(1)
	}

	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed uint64) {
			defer rwg.Done()
			x := seed
			for !stop.Load() {
				for w := 0; w < writers; w++ {
					ins := int(inserted[w].Load())
					if ins == 0 {
						continue
					}
					x = x*6364136223846793005 + 1442695040888963407
					i := int(x>>33) % ins
					// Removed before the lookup began, or not yet being
					// removed when it ended: either way the answer is
					// fixed.
					gone := i/2 < int(removed[w][i%2].Load())
					got := tcp.lookup(key(w, i))
					switch {
					case gone:
						if got != nil {
							fail("writer %d key %d found after its removal", w, i)
						}
					case i/2 >= int(removing[w][i%2].Load()):
						if got != conns[w][i] {
							fail("writer %d key %d missed (got %p, want %p)", w, i, got, conns[w][i])
						}
					}
				}
			}
		}(uint64(r + 1))
	}

	phase := func(body func(w int)) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) { defer wg.Done(); body(w) }(w)
		}
		wg.Wait()
	}
	phase(func(w int) {
		for i := 0; i < perWriter; i++ {
			if !tcp.insertConn(key(w, i), conns[w][i]) {
				fail("writer %d key %d: insert refused", w, i)
			}
			inserted[w].Add(1)
			if i%2 == 1 {
				remove(w, i-1)
			}
		}
	})
	if got, want := tcp.Conns(), writers*perWriter/2; got != want {
		t.Errorf("Conns = %d after inserts, want %d", got, want)
	}
	grown := len(tcp.conns.Load().shards)
	if grown < startShards<<3 {
		t.Errorf("table grew from %d to %d shards, want at least three doublings", startShards, grown)
	}
	phase(func(w int) {
		for i := 1; i < perWriter; i += 2 {
			remove(w, i)
		}
	})
	stop.Store(true)
	rwg.Wait()

	if got := tcp.Conns(); got != 0 {
		t.Errorf("Conns = %d after removing every key, want 0", got)
	}
	if got := len(tcp.conns.Load().shards); got != grown {
		t.Errorf("table changed from %d to %d shards while emptying; it must never shrink", grown, got)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if tcp.lookup(key(w, i)) != nil {
				t.Fatalf("writer %d key %d still present after removal", w, i)
			}
		}
	}
}

// TestConnTableGrowthKeepsEntries: doubling the table moves every entry to
// the shard its hash selects and keeps each shard sorted, so lookups and
// exact-match removes work across the split.
func TestConnTableGrowthKeepsEntries(t *testing.T) {
	eng := sim.NewEngine()
	st, err := NewStack("grow", Addr(10, 0, 0, 1), eng, &sim.SPINProfile, dispatch.New(eng, &sim.SPINProfile))
	if err != nil {
		t.Fatal(err)
	}
	tcp := st.TCP()
	const n = 5000
	for i := 0; i < n; i++ {
		tcp.insertConn(tcpKey(Addr(10, 2, byte(i>>8), byte(i)), uint16(i), 80), &Conn{})
	}
	ct := tcp.conns.Load()
	if want := tcpMinShards; len(ct.shards) <= want || n > tcpShardLoad*len(ct.shards) {
		t.Fatalf("%d entries in %d shards: table did not grow to load", n, len(ct.shards))
	}
	total := 0
	for i := range ct.shards {
		tab := ct.shards[i].snapshot()
		total += len(tab)
		for j, e := range tab {
			if got := e.key.hash() & ct.mask; got != uint64(i) {
				t.Fatalf("key %#x in shard %d, hash selects %d", e.key, i, got)
			}
			if j > 0 && tab[j-1].key >= e.key {
				t.Fatalf("shard %d not sorted at %d", i, j)
			}
		}
	}
	if total != n || tcp.Conns() != n {
		t.Fatalf("table holds %d entries, Conns = %d, want %d", total, tcp.Conns(), n)
	}
}
