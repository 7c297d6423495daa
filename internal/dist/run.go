package dist

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Run executes algo at every vertex of g under the synchronous LOCAL model
// and returns the per-vertex outputs with the measured cost. See the package
// documentation for the execution contract and the available Options.
//
// Run is a thin wrapper over a freshly built Runner; callers that execute
// many runs over the same graph should construct one Runner and reuse it so
// the per-vertex runtime state is amortized across runs.
//
// A panic inside any vertex instance aborts the run and is returned as an
// error carrying the vertex and the panic value.
func Run[T any](g *graph.Graph, algo func(Process) T, opts ...Option) (*Result[T], error) {
	r := NewRunner[T](g)
	r.oneShot = true
	defer r.Close()
	return r.Run(algo, opts...)
}

// Runner executes repeated runs over one graph, amortizing the per-vertex
// runtime state — proc structs, the vertex goroutines themselves, resume
// channels, the event queue, round inbox buffers, and Broadcast scratch
// outboxes — so that a steady-state run costs O(work), not O(bookkeeping).
// The reverse-port tables live in the graph itself (graph.ReversePorts,
// precomputed at build time), so a Runner adds no per-run preprocessing at
// all: between runs the vertex goroutines stay parked, and a new run merely
// resets statuses and releases them again.
//
// Reuse contract: a Runner is NOT safe for concurrent use — runs must be
// issued one at a time (each run still executes vertices concurrently
// internally, engine permitting). Outputs and Stats of finished runs remain
// valid indefinitely, but message buffers received by an algorithm are only
// valid until its next Round call, as documented on Process.Round. After a
// run fails (vertex panic, round cap), the Runner discards its pooled state
// and rebuilds it on the next run, because aborted vertex goroutines may
// still be unwinding user defers that touch it.
//
// Close releases the parked vertex goroutines; forgetting to call it is not
// fatal (a GC cleanup releases them when the Runner becomes unreachable),
// but explicit Close is deterministic and cheap.
type Runner[T any] struct {
	g     *graph.Graph
	delta int

	procs   []*proc[T]
	status  []uint8       // dense per-vertex lifecycle, indexed like procs
	outbox  [][][]byte    // dense per-vertex staged outboxes
	shardOf []int32       // dense vertex -> shard index (Sharded runs)
	written [][]slotRef   // per dest shard: inbox slots filled last round
	queues  [][][]qentry  // [src shard][dest shard] staged message queue
	events  chan event[T] // Goroutines/Lockstep event queue, capacity n
	shards  []shard[T]    // Sharded partition, rebuilt when the count changes
	life    *lifeline[T]  // shuts down the current goroutine generation

	// oneShot marks a Runner used for a single package-level Run: vertex
	// goroutines exit as soon as their vertex halts instead of parking for
	// a next run that will never come.
	oneShot bool
	// spawned reports whether the current generation's vertex goroutines
	// are live.
	spawned bool
}

// lifeline is the shutdown switch of one goroutine generation. Killing it
// marks the generation dead and feeds every vertex a wake-up token, so a
// park — a single channel receive — needs no second select case. It is a
// separate small object so a GC cleanup can trip it after the Runner itself
// becomes unreachable, and the Once lets abort paths, Close, and the
// cleanup share the kill race-freely.
type lifeline[T any] struct {
	dead  atomic.Bool
	once  sync.Once
	procs []*proc[T]
}

// kill releases every goroutine of the generation; idempotent. The token
// sends cannot wedge: resume has capacity 1, and a vertex whose slot is
// full is about to consume it, park again, and observe dead. Dropping the
// proc references afterwards lets a killed generation (and its pooled
// buffers) be collected even while the lifeline itself stays reachable
// through a pending AddCleanup.
func (l *lifeline[T]) kill() {
	l.once.Do(func() {
		l.dead.Store(true)
		for _, p := range l.procs {
			p.resume <- struct{}{}
		}
		l.procs = nil
	})
}

// NewRunner returns a Runner for the given graph. The type parameter is the
// per-vertex output type of the algorithms it will run.
func NewRunner[T any](g *graph.Graph) *Runner[T] {
	return &Runner[T]{g: g, delta: g.MaxDegree()}
}

// Close shuts down the Runner's parked vertex goroutines. The Runner may be
// used again afterwards (the next Run rebuilds), but the idiomatic lifecycle
// is one Close at the end, usually by defer.
func (r *Runner[T]) Close() {
	if r.life != nil {
		r.life.kill()
		r.discard()
	}
}

// discard drops every piece of generation-tainted pooled state.
func (r *Runner[T]) discard() {
	r.life = nil
	r.procs = nil
	r.status = nil
	r.outbox = nil
	r.shardOf = nil
	r.written = nil
	r.queues = nil
	r.events = nil
	r.shards = nil
	r.spawned = false
}

// clearStale nils the inbox slots filled by the previous run's final round,
// restoring the all-nil inbox invariant delivery relies on, in O(slots
// filled) rather than O(m).
func (r *Runner[T]) clearStale() {
	for j, wl := range r.written {
		for _, sr := range wl {
			r.procs[sr.idx].inbox[sr.port] = nil
		}
		r.written[j] = wl[:0]
	}
}

// Run executes one run; see Run (package function) for semantics.
func (r *Runner[T]) Run(algo func(Process) T, opts ...Option) (*Result[T], error) {
	cfg := config{engine: Goroutines, maxRounds: DefaultMaxRounds}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.engine == Compiled {
		// A plain per-vertex function carries no compiled form; the Compiled
		// engine interprets it (RunAlgo dispatches opted-in algorithms before
		// reaching here).
		return runCompiled(r.g, CompileProcess(algo), cfg)
	}
	if cfg.engine != Goroutines && cfg.engine != Lockstep && cfg.engine != Sharded {
		return nil, fmt.Errorf("dist: unknown engine %v", cfg.engine)
	}
	res := &Result[T]{Outputs: make([]T, r.g.N())}
	if r.g.N() == 0 {
		return res, nil
	}
	s := r.prepare(cfg, algo, res)
	if err := s.run(); err != nil {
		// Wake everything still parked so the generation can unwind, and
		// drop the pooled state: the next Run rebuilds from scratch rather
		// than share it with goroutines that may still be running user
		// defers.
		r.life.kill()
		r.discard()
		return nil, err
	}
	return res, nil
}

// prepare resets the pooled per-vertex state for one run and binds it to a
// fresh per-run scheduler, spawning the vertex goroutine generation if none
// is live.
func (r *Runner[T]) prepare(cfg config, algo func(Process) T, res *Result[T]) *sched[T] {
	n := r.g.N()
	if r.procs == nil {
		r.procs = make([]*proc[T], n)
		for v := 0; v < n; v++ {
			r.procs[v] = &proc[T]{idx: v, id: r.g.ID(v), resume: make(chan struct{}, 1)}
		}
		r.status = make([]uint8, n)
		r.outbox = make([][][]byte, n)
	}
	// Undo the previous run's final delivery before the written lists are
	// potentially resized for a different engine or shard count.
	r.clearStale()
	if r.life == nil {
		r.life = &lifeline[T]{procs: r.procs}
		// Safety net for Runners dropped without Close: release the parked
		// generation once the Runner is unreachable. The lifeline is its
		// own object, so passing it here does not resurrect the Runner.
		runtime.AddCleanup(r, func(l *lifeline[T]) { l.kill() }, r.life)
	}
	s := &sched[T]{
		g:       r.g,
		cfg:     cfg,
		algo:    algo,
		res:     res,
		delta:   r.delta,
		oneShot: r.oneShot,
		procs:   r.procs,
		status:  r.status,
		outbox:  r.outbox,
		life:    r.life,
	}
	count := 1 // destination partitions used by delivery bookkeeping
	if cfg.engine == Sharded {
		count = cfg.shards
		if count <= 0 {
			count = runtime.GOMAXPROCS(0)
		}
		if count > n {
			count = n
		}
		if len(r.shards) != count {
			r.shards = make([]shard[T], count)
			for i := range r.shards {
				r.shards[i] = shard[T]{
					index: i,
					lo:    i * n / count,
					hi:    (i + 1) * n / count,
					done:  make(chan struct{}, 1),
				}
			}
		}
		// A single shard needs no destination binning: its delivery is the
		// shared scatter pass (which also does the accounting), so the
		// queue and shard-lookup machinery stays nil and yields cost O(1).
		if count > 1 {
			if r.shardOf == nil {
				r.shardOf = make([]int32, n)
			}
			if len(r.queues) != count {
				r.queues = make([][][]qentry, count)
				for i := range r.queues {
					r.queues[i] = make([][]qentry, count)
				}
			}
			s.shardOf = r.shardOf
			s.queues = r.queues
		}
		s.shards = r.shards
	} else {
		if r.events == nil {
			r.events = make(chan event[T], n)
		}
		s.events = r.events
	}
	if len(r.written) != count {
		r.written = make([][]slotRef, count)
	}
	s.written = r.written
	for _, p := range r.procs {
		p.s = s
		p.rng = nil
		p.exiting = false
		p.next = nil
		p.shard = nil
		r.status[p.idx] = statusRunning
		r.outbox[p.idx] = nil
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.stats = Stats{}
		sh.err = nil
		sh.first = nil
		for v := sh.lo; v < sh.hi; v++ {
			r.procs[v].shard = sh
			if s.shardOf != nil {
				s.shardOf[v] = int32(i)
			}
		}
	}
	if !r.spawned {
		r.spawned = true
		for _, p := range r.procs {
			go vertexLoop(p, r.life)
		}
	}
	return s
}

// Vertex lifecycle within a round. Transitions are driven exclusively by the
// scheduling token that releases a vertex (statusRunning) and by the single
// yield/halt it performs per release (statusYielded / statusDone), so the
// status array needs no lock: a slot is only ever read or written while the
// owning vertex goroutine is parked, or by the vertex itself while it holds
// its release token.
const (
	statusRunning uint8 = iota // released, executing user code
	statusYielded              // parked inside Round, outbox staged
	statusDone                 // returned; output recorded
)

// event is the single message a released vertex goroutine reports back to
// the Goroutines/Lockstep scheduler: it reached Round (yielded), returned
// (done), or panicked. The Sharded engine reports through the shard token
// chain instead and never touches the event queue.
type event[T any] struct {
	p     *proc[T]
	kind  int // one of evYield, evDone, evPanic
	val   T   // valid when kind == evDone
	panic any // valid when kind == evPanic
}

const (
	evYield = iota
	evDone
	evPanic
)

// slotRef names one inbox slot filled by a delivery; the next delivery (or
// the next run) clears exactly these slots, so the all-nil inbox invariant
// is maintained in O(messages), not O(m).
type slotRef struct{ idx, port int32 }

// qentry is one staged message in a Sharded delivery queue: the destination
// vertex, the destination-side port, and the payload.
type qentry struct {
	dst, port int32
	msg       []byte
}

// proc is the per-vertex runtime state; it implements Process. A Runner
// keeps procs (and their pooled buffers) alive across runs.
type proc[T any] struct {
	s   *sched[T]
	idx int // vertex index in g
	id  int // distinct identifier g.ID(idx)
	// exiting is set just before runtime.Goexit on an aborted run and read
	// only by this vertex's own goroutine: it stops user defers that call
	// Round during the unwind from touching the channels again.
	exiting bool
	rng     *rand.Rand
	// inbox is the vertex's stable round inbox: a single pooled buffer of
	// length Deg, allocated on first use and then reused for every round
	// of every run. Delivery rewrites only the slots it touches (clearing
	// last round's via the written lists), so the slice Round returns is
	// exactly this buffer — valid until the vertex's next Round call, as
	// the Process contract states.
	inbox [][]byte
	// resume carries the release tokens. Capacity 1 makes every token send
	// a non-blocking handoff: a release token is sent only to a parked (or
	// about-to-park) vertex, and the kill token of lifeline.kill at worst
	// queues behind one unconsumed release token.
	resume chan struct{}
	// bcast is the scratch outbox reused by every Broadcast call; it is
	// invalidated (overwritten) at the vertex's next Round. bcastMsg
	// remembers the message the scratch currently replicates, so repeated
	// broadcasts of the same buffer (the steady state of "share my state
	// every round" algorithms) skip the refill entirely.
	bcast    [][]byte
	bcastMsg []byte
	// echo is the scratch that snapshots an outbox aliasing the pooled
	// inbox (the echo/forward pattern `v.Round(in)`): delivery recycles
	// inbox slots, so the staged slice must not be the inbox itself.
	echo [][]byte

	// Sharded-engine state: the shard owning this vertex (nil under the
	// other engines) and the successor in the current round's token chain.
	shard *shard[T]
	next  *proc[T]
}

var _ Process = (*proc[int])(nil)

func (p *proc[T]) ID() int        { return p.id }
func (p *proc[T]) N() int         { return p.s.g.N() }
func (p *proc[T]) Deg() int       { return p.s.g.Deg(p.idx) }
func (p *proc[T]) MaxDegree() int { return p.s.delta }

func (p *proc[T]) NeighborID(port int) int {
	return p.s.g.ID(int(p.s.g.Neighbors(p.idx)[port]))
}

func (p *proc[T]) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(VertexSeed(p.s.cfg.seed, p.id)))
	}
	return p.rng
}

func (p *proc[T]) Round(out [][]byte) [][]byte {
	deg := p.Deg()
	if out != nil && len(out) != deg {
		panic(fmt.Sprintf("dist: vertex id %d sent %d messages on %d ports", p.id, len(out), deg))
	}
	if len(out) > 0 && p.inbox != nil && &out[0] == &p.inbox[0] {
		// The caller is forwarding the slice Round returned (echo pattern).
		// Delivery recycles inbox slots, so snapshot the headers into a
		// scratch; the message buffers themselves are never recycled.
		if p.echo == nil {
			p.echo = make([][]byte, deg)
		}
		copy(p.echo, out)
		out = p.echo
	}
	if p.s.queues == nil {
		// The scatter delivery reads the staged outbox from this dense
		// array; the multi-shard queue path captures messages at yield
		// time instead and must not pin the slice for the rest of the run.
		p.s.outbox[p.idx] = out
	}
	if p.shard != nil {
		p.yieldSharded(out)
	} else {
		p.park(event[T]{p: p, kind: evYield})
	}
	if p.inbox == nil {
		// Nothing was ever delivered to this vertex; materialize the empty
		// inbox so the return is indexable.
		p.inbox = make([][]byte, deg)
	}
	return p.inbox
}

func (p *proc[T]) Broadcast(msg []byte) [][]byte {
	if msg == nil {
		return p.Round(nil)
	}
	if p.bcast == nil {
		p.bcast = make([][]byte, p.Deg())
	}
	out := p.bcast
	if !sameBuffer(msg, p.bcastMsg) {
		for i := range out {
			out[i] = msg
		}
		p.bcastMsg = msg
	}
	return p.Round(out)
}

// sameBuffer reports whether two non-empty slices share identity (backing
// array and length), i.e. replicating b is indistinguishable from
// replicating a.
func sameBuffer(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// park reports e to the scheduler and blocks until the next release token.
// If the run aborts while parked, the token is lifeline.kill's and the
// goroutine unwinds via runtime.Goexit (running user defers, reporting
// nothing further).
//
// The event send is a plain send on purpose: events has capacity n and a
// live, non-exiting vertex has at most one event in flight (it blocks on
// resume right after sending), so the send can never block — even after an
// abort, when the scheduler has stopped draining. The exiting guard keeps
// that capacity argument true when user defers call Round during the
// Goexit unwind of an aborted run.
func (p *proc[T]) park(e event[T]) {
	if p.exiting {
		runtime.Goexit()
	}
	p.s.events <- e
	<-p.resume
	if p.s.life.dead.Load() {
		p.exiting = true
		runtime.Goexit()
	}
}

// sched drives one run. All engines share it; they differ in how releases
// within a round are ordered (concurrent, sequential, or chained per shard)
// and in whether delivery scatters from senders or gathers at destinations.
type sched[T any] struct {
	g       *graph.Graph
	cfg     config
	algo    func(Process) T
	res     *Result[T]
	delta   int
	oneShot bool

	procs   []*proc[T]
	status  []uint8       // per-vertex lifecycle, dense for delivery scans
	outbox  [][][]byte    // per-vertex staged outboxes, dense for delivery scans
	shardOf []int32       // vertex -> shard index (Sharded runs)
	written [][]slotRef   // per dest shard: inbox slots filled last round
	queues  [][][]qentry  // [src shard][dest shard] staged message queues
	events  chan event[T] // buffered n: a vertex send never blocks (nil under Sharded)
	life    *lifeline[T]  // generation shutdown switch; never tripped by run itself
	shards  []shard[T]    // Sharded partition (nil under the other engines)
}

// run drives rounds until every vertex has halted, a vertex panics, or the
// round cap trips. On error the caller (Runner.Run) kills the goroutine
// generation; run itself never trips the lifeline.
func (s *sched[T]) run() (err error) {
	sharded := s.cfg.engine == Sharded
	// active is filtered in place each round, so it must not alias s.procs
	// (delivery indexes s.procs by vertex).
	active := append([]*proc[T](nil), s.procs...)
	for len(active) > 0 {
		var perr error
		if sharded {
			perr = s.releaseSharded(active)
		} else {
			perr = s.releaseAll(active)
		}
		if perr != nil {
			return perr
		}
		arrived := active[:0]
		for _, p := range active {
			if s.status[p.idx] == statusYielded {
				arrived = append(arrived, p)
			}
		}
		if len(arrived) == 0 {
			return nil
		}
		s.res.Stats.Rounds++
		s.res.Stats.Activations += len(arrived)
		if s.cfg.maxRounds > 0 && s.res.Stats.Rounds > s.cfg.maxRounds {
			return roundCapErr(s.cfg.maxRounds, s.res.Stats)
		}
		if sharded && s.queues != nil {
			s.deliverSharded()
		} else {
			s.deliver(arrived)
		}
		active = arrived
	}
	return nil
}

// vertexLoop is the body of one persistent vertex goroutine: it parks
// between runs waiting for a release token and executes one algorithm
// instance per release. The loop ends when the lifeline is killed (Close,
// GC cleanup, or an aborted run), when an instance dies reporting a panic,
// or — for one-shot Runners — as soon as the single instance halts.
func vertexLoop[T any](p *proc[T], life *lifeline[T]) {
	for {
		<-p.resume
		if life.dead.Load() {
			return
		}
		if !vertexRun(p) {
			return
		}
	}
}

// vertexRun executes one released algorithm instance to completion and
// reports its return value; it reports a panic anywhere in the algorithm
// instead (runtime.Goexit from an aborted park skips both reports: recover
// returns nil during Goexit). The return value says whether the goroutine
// should keep serving future runs.
func vertexRun[T any](p *proc[T]) (alive bool) {
	alive = true
	defer func() {
		if r := recover(); r != nil && !p.exiting {
			alive = false
			if p.shard != nil {
				p.failSharded(r)
			} else {
				p.s.events <- event[T]{p: p, kind: evPanic, panic: r} // never blocks, see park
			}
		}
	}()
	val := p.s.algo(p)
	if p.s.oneShot {
		alive = false
	}
	if p.shard != nil {
		// The vertex still holds its shard's token: record the output and
		// status directly and pass the token on. The end-of-round barrier
		// publishes both to the scheduler.
		p.s.res.Outputs[p.idx] = val
		p.s.status[p.idx] = statusDone
		p.passToken()
		return alive
	}
	p.s.events <- event[T]{p: p, kind: evDone, val: val} // never blocks, see park
	return alive
}

// releaseAll resumes every active vertex and waits until each has yielded at
// Round or halted, updating statuses and recording outputs. Under Goroutines
// all vertices run concurrently between release and collection; under
// Lockstep each vertex is released only after the previous one yielded, so
// at most one vertex instance executes at any time.
func (s *sched[T]) releaseAll(active []*proc[T]) error {
	sequential := s.cfg.engine == Lockstep
	pending := 0
	for _, p := range active {
		s.status[p.idx] = statusRunning
		p.resume <- struct{}{}
		pending++
		if sequential {
			if err := s.collect(&pending); err != nil {
				return err
			}
		}
	}
	for pending > 0 {
		if err := s.collect(&pending); err != nil {
			return err
		}
	}
	return nil
}

// collect consumes one event, decrementing *pending.
func (s *sched[T]) collect(pending *int) error {
	e := <-s.events
	*pending--
	switch e.kind {
	case evYield:
		s.status[e.p.idx] = statusYielded
	case evDone:
		s.status[e.p.idx] = statusDone
		s.res.Outputs[e.p.idx] = e.val
	case evPanic:
		return fmt.Errorf("dist: vertex id %d panicked: %v", e.p.id, e.panic)
	}
	return nil
}

// deliver moves the staged outboxes of the vertices that called Round this
// round into their neighbors' inboxes, accounting costs as it goes.
// Messages addressed to a vertex that has already halted are dropped (but
// still accounted: the sender did transmit them). The previous round's
// inbox slots are cleared through the written list, so a round costs
// O(messages), not O(m), and steady-state rounds allocate nothing.
func (s *sched[T]) deliver(arrived []*proc[T]) {
	stats := &s.res.Stats
	wl := s.written[0]
	for _, sr := range wl {
		s.procs[sr.idx].inbox[sr.port] = nil
	}
	wl = wl[:0]
	for _, p := range arrived {
		out := s.outbox[p.idx]
		if out == nil {
			continue
		}
		s.outbox[p.idx] = nil
		nbrs := s.g.Neighbors(p.idx)
		rp := s.g.ReversePorts(p.idx)
		for port, msg := range out {
			if msg == nil {
				continue
			}
			stats.Bytes += len(msg)
			if len(msg) > stats.MaxMessageBytes {
				stats.MaxMessageBytes = len(msg)
			}
			u := nbrs[port]
			if s.status[u] != statusYielded {
				continue // halted this round or earlier: drop
			}
			q := s.procs[u]
			if q.inbox == nil {
				q.inbox = make([][]byte, s.g.Deg(int(u)))
			}
			q.inbox[rp[port]] = msg
			wl = append(wl, slotRef{idx: u, port: rp[port]})
		}
	}
	s.written[0] = wl
}
