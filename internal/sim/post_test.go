package sim

import (
	"slices"
	"testing"
)

// postWorld is one copy of a seeded random schedule over a cluster of
// engines. Every event, when it runs, records itself and schedules a few
// more on random engines at random (often tied) times; some are
// cancellable timers that a later event may cancel. In the reference copy
// every event is an At closure; in the other, every non-timer event is
// posted to a long-lived handler. Both copies draw the same random numbers
// in the same order, so they must run the same events in the same order.
type postWorld struct {
	usePost bool
	rng     *Rand
	engines []*Engine
	targets []*postTarget
	nextID  int
	limit   int
	timers  []*Event // cancellable events not yet run or cancelled
	order   []fired
	runs    map[int]int
}

type fired struct {
	id, engine int
	at         Time
}

// postTarget is the long-lived handler of one engine's posted events.
type postTarget struct {
	w      *postWorld
	engine int
}

func (p *postTarget) Handle(id int, arg any) {
	if arg != p {
		panic("posted event delivered with another handler's argument")
	}
	p.w.fire(p.engine, id)
}

func newPostWorld(seed uint64, engines int, usePost bool) (*postWorld, *Cluster) {
	w := &postWorld{usePost: usePost, rng: NewRand(seed), limit: 3000, runs: map[int]int{}}
	c := NewCluster()
	for i := 0; i < engines; i++ {
		e := NewEngine()
		w.engines = append(w.engines, e)
		w.targets = append(w.targets, &postTarget{w: w, engine: i})
		c.Add(e)
	}
	for i := 0; i < 2*engines; i++ {
		w.schedule(i % engines)
	}
	return w, c
}

// schedule adds one event, sent from engine `from` at its local time.
func (w *postWorld) schedule(from int) {
	if w.nextID >= w.limit {
		return
	}
	id := w.nextID
	w.nextID++
	to := w.rng.Intn(len(w.engines))
	at := w.engines[from].Now().Add(Duration(w.rng.Intn(4)) * Microsecond)
	if w.rng.Intn(4) == 0 {
		// A cancellable timer: At in both copies.
		ev := w.engines[to].At(at, func() { w.fire(to, id) })
		w.timers = append(w.timers, ev)
		return
	}
	if w.usePost {
		w.engines[to].Post(at, w.targets[to], id, w.targets[to])
		return
	}
	w.engines[to].At(at, func() { w.fire(to, id) })
}

func (w *postWorld) fire(engine, id int) {
	w.order = append(w.order, fired{id: id, engine: engine, at: w.engines[engine].Now()})
	w.runs[id]++
	w.timers = slices.DeleteFunc(w.timers, func(ev *Event) bool { return ev.index < 0 })
	if len(w.timers) > 0 && w.rng.Intn(3) == 0 {
		k := w.rng.Intn(len(w.timers))
		w.timers[k].Cancel()
		w.timers = slices.Delete(w.timers, k, k+1)
	}
	for n := w.rng.Intn(3); n >= 0; n-- {
		w.schedule(engine)
	}
}

// TestPostMatchesAt: events posted to handlers and At closures interleave
// in exactly the (time, sequence) order of an all-At reference, across
// cluster steps over several engines, and no recycled event ever runs
// twice.
func TestPostMatchesAt(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		ref, rc := newPostWorld(seed, 5, false)
		got, gc := newPostWorld(seed, 5, true)
		for rc.Step() {
		}
		for gc.Step() {
		}
		if !slices.Equal(got.order, ref.order) {
			t.Fatalf("seed %d: posted run diverged from the all-At reference (%d vs %d events)",
				seed, len(got.order), len(ref.order))
		}
		for id, n := range got.runs {
			if n != 1 {
				t.Fatalf("seed %d: event %d ran %d times", seed, id, n)
			}
		}
		if len(got.order) < 1000 {
			t.Fatalf("seed %d: only %d events ran", seed, len(got.order))
		}
	}
}

// countTarget counts the posts it receives.
type countTarget struct{ n int }

func (c *countTarget) Handle(int, any) { c.n++ }

// TestPostRecyclesEvents: once warm, posting to a handler and stepping the
// event allocates nothing.
func TestPostRecyclesEvents(t *testing.T) {
	e := NewEngine()
	h := &countTarget{}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Post(e.Now().Add(Microsecond), h, 0, h)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("post+step allocates %.1f objects, want 0", allocs)
	}
	if h.n != 1001 {
		t.Errorf("handler ran %d times, want 1001", h.n)
	}
}
