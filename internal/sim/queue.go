package sim

// Event is a scheduled simulation callback: either a closure (At/After,
// cancellable through the returned *Event) or a call to a long-lived
// Handler (Post, not cancellable, and recycled by the engine once run).
type Event struct {
	At     Time
	Do     func()
	seq    int64 // tie-break: FIFO among same-time events
	index  int   // heap index; -1 once popped or cancelled
	cancel bool

	// Posted events carry their target and arguments instead of Do.
	h   Handler
	n   int
	arg any
}

// Cancel marks the event so it will be skipped when its time arrives.
func (e *Event) Cancel() { e.cancel = true }

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.cancel }

// Handler is the target of a posted event: a long-lived object (a NIC, a
// switch port, a receive queue) whose Handle runs when the event's time
// arrives, with the two arguments given to Post. A posted event needs no
// closure and no fresh Event, so a frame hop schedules without allocating.
type Handler interface {
	Handle(n int, arg any)
}

type eventHeap []*Event

func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

// push adds ev to the heap.
func (h *eventHeap) push(ev *Event) {
	ev.index = len(*h)
	*h = append(*h, ev)
	siftUp(*h, ev.index)
}

// pop removes and returns the earliest event, marking it off-heap.
func (h *eventHeap) pop() *Event {
	old := *h
	n := len(old)
	ev := old[0]
	old.Swap(0, n-1)
	old[n-1] = nil
	*h = old[:n-1]
	ev.index = -1
	if n > 2 {
		siftDown(*h, 0)
	}
	return ev
}

// siftUp restores the heap property from index i upward.
func siftUp(h eventHeap, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.Less(i, parent) {
			return
		}
		h.Swap(i, parent)
		i = parent
	}
}

// siftDown restores the heap property from index i downward.
func siftDown(h eventHeap, i int) {
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.Less(right, left) {
			smallest = right
		}
		if !h.Less(smallest, i) {
			return
		}
		h.Swap(i, smallest)
		i = smallest
	}
}

// Engine couples a Clock with a time-ordered event queue. It is the heart of
// the discrete-event simulation: device interrupts, wire deliveries, timer
// expirations and preemption ticks are all Events.
type Engine struct {
	Clock *Clock
	queue eventHeap
	seq   int64
	// free heads the list of run posted events that Post reuses, chained
	// through their arg field; no handle to them escapes, so nothing can
	// observe the reuse.
	free *Event

	// Cluster bookkeeping (see Cluster): the cluster driving this engine,
	// the engine's slot in that cluster's heap (-1 when absent), its
	// registration index, and its key — a lower bound on its head time.
	owner *Cluster
	slot  int
	reg   int
	key   Time
}

// NewEngine returns an engine with a fresh clock at time zero.
func NewEngine() *Engine {
	return &Engine{Clock: NewClock()}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.Clock.Now() }

// At schedules fn to run at absolute virtual time t. If t is in the past it
// runs at the current time (next Step). An event below the engine's cluster
// key moves the engine up in its cluster's heap.
func (e *Engine) At(t Time, fn func()) *Event {
	ev := &Event{Do: fn}
	e.schedule(ev, t)
	return ev
}

// Post schedules h.Handle(n, arg) at absolute virtual time t, in the same
// (time, sequence) order as At and with the same clamping of past times.
// Posted events cannot be cancelled — no handle is returned — so the
// engine recycles them: a steady stream of posts to long-lived handlers
// allocates nothing. Cancellable timers use At or After.
func (e *Engine) Post(t Time, h Handler, n int, arg any) {
	ev := e.free
	if ev != nil {
		e.free, _ = ev.arg.(*Event)
	} else {
		ev = new(Event)
	}
	ev.h, ev.n, ev.arg = h, n, arg
	e.schedule(ev, t)
}

// schedule queues ev at t (clamped to now) behind every event already
// queued for the same time, and reports the new head to the cluster.
func (e *Engine) schedule(ev *Event, t Time) {
	if t < e.Clock.Now() {
		t = e.Clock.Now()
	}
	ev.At, ev.seq = t, e.seq
	e.seq++
	e.queue.push(ev)
	if e.owner != nil && (e.slot < 0 || t < e.key) {
		e.owner.lower(e, t)
	}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Duration, fn func()) *Event {
	return e.At(e.Clock.Now().Add(d), fn)
}

// Pending reports the number of live (uncancelled) queued events.
func (e *Engine) Pending() int {
	n := 0
	for _, ev := range e.queue {
		if !ev.cancel {
			n++
		}
	}
	return n
}

// Step pops and runs the earliest event, advancing the clock to its time as
// idle time (the CPU was waiting for it). It returns false when the queue is
// empty. Cancelled events are discarded without running. A posted event
// goes back to the free list before its handler runs, so a handler that
// posts again reuses it.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.cancel {
			continue
		}
		e.Clock.AdvanceTo(ev.At)
		if h := ev.h; h != nil {
			n, arg := ev.n, ev.arg
			ev.h, ev.arg, e.free = nil, e.free, ev
			h.Handle(n, arg)
			return true
		}
		ev.Do()
		return true
	}
	return false
}

// Run steps until the queue drains or the clock passes deadline (0 means no
// deadline). It returns the number of events executed.
func (e *Engine) Run(deadline Time) int {
	n := 0
	for len(e.queue) > 0 {
		if deadline != 0 && e.queue[0].At > deadline {
			e.Clock.AdvanceTo(deadline)
			return n
		}
		if e.Step() {
			n++
		}
	}
	return n
}

// RunUntil steps until pred() is true, the queue drains, or the clock passes
// deadline. It reports whether pred became true.
func (e *Engine) RunUntil(pred func() bool, deadline Time) bool {
	for !pred() {
		if len(e.queue) == 0 {
			return pred()
		}
		if deadline != 0 && e.queue[0].At > deadline {
			e.Clock.AdvanceTo(deadline)
			return pred()
		}
		e.Step()
	}
	return true
}
