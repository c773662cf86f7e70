package sim

import (
	"fmt"
	"slices"
	"testing"
)

// scanNext is the linear scan the cluster heap replaced, kept as the
// reference: the registered engine with the earliest live event, the first
// registered winning ties.
func scanNext(engines []*Engine) *Engine {
	var best *Engine
	var bestAt Time
	for _, e := range engines {
		at, ok := e.NextEventTime()
		if !ok {
			continue
		}
		if best == nil || at < bestAt {
			best, bestAt = e, at
		}
	}
	return best
}

// modelWorld is one copy of a seeded random schedule. Two copies built from
// the same seed execute identical operations for as long as they pick the
// same events, because every random choice comes from the world's own
// generator and is made in event order.
type modelWorld struct {
	rng     *Rand
	engines []*Engine // all engines; the first registered ones are in the cluster(s)
	index   map[*Engine]int
	evs     []modelEvent
	live    [][]int // per engine: ids of events not known to be dead
	ran     []int   // event ids in execution order
}

type modelEvent struct {
	engine int
	at     Time
	ev     *Event
	dead   bool // ran or cancelled
}

func newModelWorld(seed uint64, engines int) *modelWorld {
	w := &modelWorld{rng: NewRand(seed), index: map[*Engine]int{}, live: make([][]int, engines)}
	for i := 0; i < engines; i++ {
		e := NewEngine()
		w.engines = append(w.engines, e)
		w.index[e] = i
	}
	for i := 0; i < 3*engines; i++ {
		w.schedule(w.rng.Intn(engines), Time(w.rng.Intn(40)))
	}
	return w
}

// schedule puts a fresh event on engine j at t; when it runs it logs itself
// and performs a few random operations of its own.
func (w *modelWorld) schedule(j int, t Time) {
	id := len(w.evs)
	w.evs = append(w.evs, modelEvent{engine: j})
	w.live[j] = append(w.live[j], id)
	ev := w.engines[j].At(t, func() {
		w.evs[id].dead = true
		w.ran = append(w.ran, id)
		w.act(j)
	})
	w.evs[id].ev, w.evs[id].at = ev, ev.At
}

// act is the body of every event, running on engine j.
func (w *modelWorld) act(j int) {
	e := w.engines[j]
	e.Clock.Advance(Duration(w.rng.Intn(3))) // this event's CPU cost
	for n := w.rng.Intn(4); n > 0; n-- {
		k := w.rng.Intn(len(w.engines))
		switch op := w.rng.Intn(10); {
		case op < 4:
			// Cross-machine send: sender time plus a small wire delay, so
			// same-time ties across engines are common.
			w.schedule(k, e.Now().Add(Duration(5*w.rng.Intn(3))))
		case op < 6:
			// Into the target engine's present (or its past, clamped).
			w.schedule(k, w.engines[k].Now()-Time(w.rng.Intn(2)))
		case op < 8:
			w.cancelHead(k)
		case op < 9:
			w.cancelAny()
		}
	}
}

// cancelHead cancels engine k's earliest live event, if any.
func (w *modelWorld) cancelHead(k int) {
	best := -1
	ids := w.live[k][:0]
	for _, id := range w.live[k] {
		if w.evs[id].dead {
			continue
		}
		ids = append(ids, id)
		if best < 0 || w.evs[id].at < w.evs[best].at {
			best = id
		}
	}
	w.live[k] = ids
	if best >= 0 {
		w.evs[best].ev.Cancel()
		w.evs[best].dead = true
	}
}

// cancelAny cancels a random live event, if the draw lands on one.
func (w *modelWorld) cancelAny() {
	id := w.rng.Intn(len(w.evs))
	if !w.evs[id].dead {
		w.evs[id].ev.Cancel()
		w.evs[id].dead = true
	}
}

// TestClusterHeapMatchesScan drives seeded random schedules through two
// copies of the same world — one stepped by Cluster, one by the reference
// linear scan — and requires the same engine and the same event at every
// step. The schedules mix cross-engine At with same-time ties and sends
// into another engine's present, cancellation of head events, direct
// Engine.Step calls from outside the cluster (as a strand CPU makes), Add
// in the middle of a run, and a second cluster built over the same engines
// and then used alternately with the first.
func TestClusterHeapMatchesScan(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runHeapVsScan(t, seed) })
	}
}

func runHeapVsScan(t *testing.T, seed uint64) {
	const engines, steps = 7, 3000
	heapW := newModelWorld(seed, engines)
	scanW := newModelWorld(seed, engines)
	ctl := NewRand(seed ^ 0xc1)

	registered := 3
	clusters := []*Cluster{NewCluster(slices.Clone(heapW.engines[:registered])...)}
	cluster := clusters[0]
	for step := 0; step < steps; step++ {
		switch op := ctl.Intn(100); {
		case op < 80:
			if len(clusters) == 2 {
				cluster = clusters[ctl.Intn(2)]
			}
			got, at := cluster.next()
			want := scanNext(scanW.engines[:registered])
			if (got == nil) != (want == nil) {
				t.Fatalf("step %d: heap picked %v, scan picked %v", step, got != nil, want != nil)
			}
			if got == nil {
				// Drained: inject an event so the run goes on.
				j := ctl.Intn(registered)
				heapW.schedule(j, heapW.engines[j].Now())
				scanW.schedule(j, scanW.engines[j].Now())
				continue
			}
			gi, wi := heapW.index[got], scanW.index[want]
			if gi != wi {
				t.Fatalf("step %d: heap picked engine %d, scan picked engine %d", step, gi, wi)
			}
			if wantAt, _ := want.NextEventTime(); at != wantAt {
				t.Fatalf("step %d: heap reports head %v, scan %v", step, at, wantAt)
			}
			got.Step()
			want.Step()
		case op < 90:
			// A direct Engine.Step from outside the cluster.
			j := ctl.Intn(engines)
			heapW.engines[j].Step()
			scanW.engines[j].Step()
		case op < 93:
			if registered < engines {
				for _, c := range clusters {
					c.Add(heapW.engines[registered])
				}
				registered++
			}
		case op < 95:
			if len(clusters) == 1 {
				clusters = append(clusters, NewCluster(slices.Clone(heapW.engines[:registered])...))
			}
		default:
			j := ctl.Intn(engines)
			heapW.schedule(j, heapW.engines[j].Now())
			scanW.schedule(j, scanW.engines[j].Now())
		}
		if !slices.Equal(heapW.ran, scanW.ran) {
			t.Fatalf("step %d: event order diverged:\nheap %v\nscan %v", step, tail(heapW.ran), tail(scanW.ran))
		}
	}
	if len(heapW.ran) < steps/2 {
		t.Fatalf("only %d events ran in %d steps", len(heapW.ran), steps)
	}
	if registered != engines || len(clusters) != 2 {
		t.Fatalf("schedule did not cover Add and a second cluster (registered %d, clusters %d)", registered, len(clusters))
	}
	for j := range heapW.engines {
		if a, b := heapW.engines[j].Now(), scanW.engines[j].Now(); a != b {
			t.Fatalf("engine %d clock: heap world %v, scan world %v", j, a, b)
		}
	}
}

func tail(ids []int) []int {
	if len(ids) > 8 {
		return ids[len(ids)-8:]
	}
	return ids
}

// TestClusterOwnership pins the ownership rule: an engine reports new
// events to the cluster that stepped it last, and a cluster whose engine
// was taken re-claims it before stepping. Without the re-claim, the first
// cluster's cached key for b (100) would hide b's event at 5, scheduled
// while the second cluster owned b, behind c's at 50.
func TestClusterOwnership(t *testing.T) {
	a, b, c := NewEngine(), NewEngine(), NewEngine()
	var order []string
	a.At(10, func() { order = append(order, "a10") })
	b.At(100, func() { order = append(order, "b100") })
	c.At(50, func() { order = append(order, "c50") })
	first := NewCluster(a, b, c)
	if e, at := first.next(); e != a || at != 10 {
		t.Fatalf("first pick is a: %v at %v, want a at 10", e == a, at)
	}
	if b.owner != first {
		t.Fatal("stepping cluster does not own its engines")
	}
	second := NewCluster(a, b, c)
	if !second.Step() || b.owner != second || !first.stale {
		t.Fatalf("second cluster did not take ownership (owner is second: %v, first stale: %v)", b.owner == second, first.stale)
	}
	b.At(5, func() { order = append(order, "b5") })
	if !first.Step() || b.owner != first || !second.stale {
		t.Fatal("first cluster did not re-claim its engines")
	}
	first.Run(0)
	if want := []string{"a10", "b5", "c50", "b100"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// An engine registered twice keeps its first registration index, as the
// scan's first-match tie-break did.
func TestClusterDuplicateEngineKeepsFirstIndex(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	var order []string
	a.At(5, func() { order = append(order, "a") })
	b.At(5, func() { order = append(order, "b") })
	NewCluster(a, b, a).Run(0)
	if want := []string{"a", "b"}; !slices.Equal(order, want) {
		t.Fatalf("order %v, want %v", order, want)
	}
}
