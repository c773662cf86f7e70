package sim

// Cluster coordinates several Engines — one per simulated machine — into a
// single causally consistent simulation. Each machine has its own clock;
// cross-machine interactions (wire deliveries) are scheduled on the
// destination engine at sender-local-time + delay. The cluster always steps
// the engine with the globally earliest pending event, the classic
// conservative strategy: an engine's new events are never earlier than its
// own clock, so stepping the minimum cannot violate causality. Among engines
// whose earliest events tie, the one registered first runs.
//
// The engines sit in an indexed min-heap keyed by (key, registration
// index), where an engine's key is a cached lower bound on its earliest
// event time: every key is ≤ that engine's true head time. Engine.At lowers
// the key when a new event becomes the earliest; events popped by a direct
// Engine.Step or cancelled in place only leave keys stale-low. Picking the
// next engine revalidates the top key against NextEventTime and sifts down
// until the top's key is its real head time — at which point no other
// engine can hold an earlier (time, registration index) pair, so the pick
// is exactly what a scan of every engine would choose.
//
// Ownership: an engine reports its new events to one cluster at a time, the
// one that stepped it last. A cluster that was just built or extended, or
// that finds another has taken one of its engines, claims all of them and
// rebuilds its heap (O(engines)) before its next step, so several clusters
// built over the same engines stay correct when used in turn or
// alternately — each switch just costs a rebuild.
type Cluster struct {
	engines []*Engine
	heap    []*Engine
	// stale is set while the heap cannot be trusted: before the first step,
	// after Add, and after another cluster took one of the engines.
	stale bool
}

// NewCluster returns a cluster over engines.
func NewCluster(engines ...*Engine) *Cluster {
	return &Cluster{engines: engines, stale: true}
}

// Add registers an engine with the cluster. Registration order breaks ties
// between engines whose earliest events are at the same time.
func (c *Cluster) Add(e *Engine) {
	c.engines = append(c.engines, e)
	c.stale = true
}

// Engines returns the cluster's engines in registration order (the slice is
// shared; callers must not mutate it).
func (c *Cluster) Engines() []*Engine { return c.engines }

// rebuild claims every engine and re-forms the heap from their queue heads.
func (c *Cluster) rebuild() {
	c.stale = false
	clear(c.heap)
	c.heap = c.heap[:0]
	// Claim in reverse so an engine registered twice keeps its first index.
	for i := len(c.engines) - 1; i >= 0; i-- {
		e := c.engines[i]
		if e.owner != nil && e.owner != c {
			e.owner.stale = true
		}
		e.owner, e.reg, e.slot = c, i, -1
	}
	for _, e := range c.engines {
		if e.slot < 0 && len(e.queue) > 0 {
			e.key, e.slot = e.queue[0].At, len(c.heap)
			c.heap = append(c.heap, e)
		}
	}
	for i := len(c.heap)/2 - 1; i >= 0; i-- {
		c.down(i)
	}
}

// lower is Engine.At's hook: e gained an event at t below its key (or e
// was out of the heap entirely).
func (c *Cluster) lower(e *Engine, t Time) {
	if c.stale {
		return // the rebuild before the next step reads every queue head
	}
	e.key = t
	if e.slot < 0 {
		e.slot = len(c.heap)
		c.heap = append(c.heap, e)
	}
	c.up(e.slot)
}

// next returns the engine with the earliest pending event and that event's
// time, or nil when every engine is drained.
func (c *Cluster) next() (*Engine, Time) {
	if c.stale {
		c.rebuild()
	}
	for len(c.heap) > 0 {
		e := c.heap[0]
		at, ok := e.NextEventTime()
		switch {
		case !ok:
			c.removeTop()
		case at == e.key:
			return e, at
		default:
			e.key = at
			c.down(0)
		}
	}
	return nil, 0
}

func (c *Cluster) less(i, j int) bool {
	a, b := c.heap[i], c.heap[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.reg < b.reg
}

func (c *Cluster) swap(i, j int) {
	h := c.heap
	h[i], h[j] = h[j], h[i]
	h[i].slot = i
	h[j].slot = j
}

func (c *Cluster) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			return
		}
		c.swap(i, parent)
		i = parent
	}
}

func (c *Cluster) down(i int) {
	n := len(c.heap)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && c.less(right, left) {
			smallest = right
		}
		if !c.less(smallest, i) {
			return
		}
		c.swap(i, smallest)
		i = smallest
	}
}

// removeTop drops the drained engine at the top of the heap; Engine.At puts
// it back when it next gains an event.
func (c *Cluster) removeTop() {
	last := len(c.heap) - 1
	c.swap(0, last)
	c.heap[last].slot = -1
	c.heap[last] = nil
	c.heap = c.heap[:last]
	c.down(0)
}

// Step runs the globally earliest event. It returns false when every engine
// is drained.
func (c *Cluster) Step() bool {
	e, _ := c.next()
	if e == nil {
		return false
	}
	return e.Step()
}

// Run steps until all engines drain or the earliest pending event is past
// deadline (0 means none). It returns the number of events executed.
func (c *Cluster) Run(deadline Time) int {
	n := 0
	for {
		e, at := c.next()
		if e == nil {
			return n
		}
		if deadline != 0 && at > deadline {
			return n
		}
		if e.Step() {
			n++
		}
	}
}

// RunUntil steps until pred() holds, everything drains, or deadline passes.
// It reports whether pred became true.
func (c *Cluster) RunUntil(pred func() bool, deadline Time) bool {
	for !pred() {
		e, at := c.next()
		if e == nil {
			return pred()
		}
		if deadline != 0 && at > deadline {
			return pred()
		}
		e.Step()
	}
	return true
}

// NextEventTime reports the time of the engine's earliest live event.
func (e *Engine) NextEventTime() (Time, bool) {
	for len(e.queue) > 0 {
		if e.queue[0].cancel {
			// Lazily discard cancelled heads.
			e.queue.pop()
			continue
		}
		return e.queue[0].At, true
	}
	return 0, false
}
