package dist

import (
	"fmt"
	"iter"
	"math/rand"

	"repro/internal/graph"
)

// This file is the Compiled engine: whole-run execution of an algorithm as
// tight passes over the graph's flat CSR arrays, with no goroutines and no
// channels. An algorithm opts in by bundling a CompiledAlgo next to its
// per-vertex function (Algo); RunAlgo dispatches to the compiled form when
// the Compiled engine is selected and the bundle carries one, and to the
// ordinary scheduler otherwise. Runner.Run interprets a plain per-vertex
// function under the Compiled engine (CompileProcess), so the engine is
// always safe to ask for.
//
// The contract a CompiledAlgo must honor is strict byte-equality: for every
// graph and seed its Outputs and Stats must equal those of the per-vertex
// form under every other engine — the same colors, the same Rounds,
// Activations, Bytes and MaxMessageBytes, the same error text on a tripped
// round cap. Tally exists so compiled forms account rounds and messages in
// exactly the order and with exactly the cap semantics of the scheduler.

// CompiledEnv carries the run configuration a CompiledAlgo sees: the options
// of the run that are not engine-scheduling details.
type CompiledEnv struct {
	// Seed is the run seed (WithSeed); per-vertex streams derive from it via
	// VertexSeed, exactly as Process.Rand does.
	Seed int64
	// MaxRounds is the round cap (WithMaxRounds semantics: <= 0 means
	// uncapped). Compiled forms enforce it through Tally.StartRound.
	MaxRounds int
}

// NewTally returns a Tally enforcing this environment's round cap.
func (e CompiledEnv) NewTally() *Tally { return &Tally{maxRounds: e.MaxRounds} }

// CompiledAlgo is the whole-run form of an algorithm: it computes the output
// of every vertex of g in one call, writing outputs[v] for each vertex index
// v, and returns Stats byte-identical to what the per-vertex form of the
// same algorithm produces under the other engines. outputs has length g.N()
// > 0 (the runtime short-circuits empty graphs before dispatching).
type CompiledAlgo[T any] interface {
	RunCompiled(g *graph.Graph, env CompiledEnv, outputs []T) (Stats, error)
}

// Algo bundles the two forms of an algorithm. Vertex is required; Compiled
// is optional and is used only when the Compiled engine is selected.
type Algo[T any] struct {
	// Vertex is the per-vertex form, as accepted by Run.
	Vertex func(Process) T
	// Compiled, when non-nil, is the flat whole-run form the Compiled engine
	// executes. It must be byte-equivalent to Vertex (Outputs and Stats).
	Compiled CompiledAlgo[T]
}

// Tally accumulates Stats with the scheduler's exact accounting order, so a
// compiled form cannot drift from the engines it must stay byte-identical
// to. Per round: StartRound first (Rounds, Activations, then the cap check —
// a capped round's messages are never counted), then one Message call per
// message composed in that round, halted destinations included.
type Tally struct {
	// Stats is the accumulated accounting; read it after the run.
	Stats     Stats
	maxRounds int
}

// StartRound accounts the start of one synchronous round in which arrived
// vertices reached Round, and errors if the round cap is now exceeded — with
// the same error text and the same partially-accumulated Stats the scheduler
// reports.
func (t *Tally) StartRound(arrived int) error {
	t.Stats.Rounds++
	t.Stats.Activations += arrived
	if t.maxRounds > 0 && t.Stats.Rounds > t.maxRounds {
		return roundCapErr(t.maxRounds, t.Stats)
	}
	return nil
}

// Message accounts one composed message of the given size. Call it for every
// message a vertex stages, whether or not the destination still listens —
// the scheduler charges dropped messages too.
func (t *Tally) Message(size int) {
	t.Stats.Bytes += size
	if size > t.Stats.MaxMessageBytes {
		t.Stats.MaxMessageBytes = size
	}
}

// Messages accounts count identical messages of the given size (a
// Broadcast). count == 0 is a no-op.
func (t *Tally) Messages(count, size int) {
	if count <= 0 {
		return
	}
	t.Stats.Bytes += count * size
	if size > t.Stats.MaxMessageBytes {
		t.Stats.MaxMessageBytes = size
	}
}

// roundCapErr is the shared round-cap error; the scheduler and every Tally
// produce byte-identical text through it.
func roundCapErr(maxRounds int, s Stats) error {
	return fmt.Errorf("dist: round cap %d exceeded after %v; raise it with WithMaxRounds", maxRounds, s)
}

// RunAlgo executes a bundled algorithm at every vertex of g: under the
// Compiled engine (and a non-nil a.Compiled) as a flat whole-run pass,
// otherwise exactly as Run(g, a.Vertex, opts...). See Run for the execution
// contract.
func RunAlgo[T any](g *graph.Graph, a Algo[T], opts ...Option) (*Result[T], error) {
	cfg := config{engine: Goroutines, maxRounds: DefaultMaxRounds}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.engine == Compiled && a.Compiled != nil {
		return runCompiled(g, a.Compiled, cfg)
	}
	if a.Vertex == nil {
		return nil, fmt.Errorf("dist: algo has no Vertex form")
	}
	return Run(g, a.Vertex, opts...)
}

// RunAlgo executes one bundled-algorithm run on this Runner; see RunAlgo
// (package function) for semantics. Compiled runs touch none of the pooled
// goroutine state, so mixing compiled and scheduled runs on one Runner is
// free.
func (r *Runner[T]) RunAlgo(a Algo[T], opts ...Option) (*Result[T], error) {
	cfg := config{engine: Goroutines, maxRounds: DefaultMaxRounds}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.engine == Compiled && a.Compiled != nil {
		return runCompiled(r.g, a.Compiled, cfg)
	}
	if a.Vertex == nil {
		return nil, fmt.Errorf("dist: algo has no Vertex form")
	}
	return r.Run(a.Vertex, opts...)
}

// RunAlgo acquires a Runner and executes one bundled-algorithm run on it;
// see RunAlgo (package function) for semantics.
func (p *Pool[T]) RunAlgo(a Algo[T], opts ...Option) (*Result[T], error) {
	r := p.acquire()
	res, err := r.RunAlgo(a, opts...)
	p.release(r)
	return res, err
}

// runCompiled is the Compiled engine's dispatch: one whole-run pass.
func runCompiled[T any](g *graph.Graph, ca CompiledAlgo[T], cfg config) (*Result[T], error) {
	res := &Result[T]{Outputs: make([]T, g.N())}
	if g.N() == 0 {
		return res, nil
	}
	env := CompiledEnv{Seed: cfg.seed, MaxRounds: cfg.maxRounds}
	stats, err := ca.RunCompiled(g, env, res.Outputs)
	if err != nil {
		return nil, err
	}
	res.Stats = stats
	return res, nil
}

// CompileProcess adapts any per-vertex algorithm into a CompiledAlgo: the
// vertex instances run as coroutines (iter.Pull) resumed sequentially in
// vertex order, and rounds are delivered by a single scatter pass over the
// CSR reverse-port arrays into flat per-vertex inbox slices — no goroutines,
// no channels, no barrier. Outputs and Stats are byte-identical to the
// scheduler by construction: the same user code runs against the same
// delivery, accounting, and abort semantics.
//
// It is the compiled form of choice for blocking-style pipelines (the
// Defective-Color levels of the vertex and §5 edge Legal-Color, between
// their flat passes; see InterpretOn) where hand-flattening the control
// flow would duplicate the algorithm; hand-written flat passes (packages
// baseline, core, dynamic, panconesi, fewcolors) pay off where the round
// structure is simple enough to close over and the code runs on every
// service miss.
func CompileProcess[T any](f func(Process) T) CompiledAlgo[T] {
	return procInterp[T]{f: f}
}

// Interpret bundles a per-vertex body with its CompileProcess form: the one
// definition runs on all four engines, the Compiled engine interpreting it
// via coroutines. Algorithms with a hand-flattened compiled pass should
// build their Algo explicitly instead.
func Interpret[T any](f func(Process) T) Algo[T] {
	return Algo[T]{Vertex: f, Compiled: CompileProcess(f)}
}

type procInterp[T any] struct {
	f func(Process) T
}

// compiledAbort is the sentinel panic that unwinds a coroutine stopped
// mid-run (abort after a vertex panic or a tripped round cap); the coroutine
// wrapper recovers it, so user defers run exactly as they do during the
// scheduler's Goexit unwind.
type compiledAbort struct{}

// cvert is the per-vertex interpreter state; it implements Process for the
// coroutine running the user function.
type cvert[T any] struct {
	run      *crun[T]
	idx      int
	id       int
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	out      [][]byte // staged outbox (nil = sent nothing this round)
	inbox    [][]byte // pooled round inbox, same reuse contract as proc
	rng      *rand.Rand
	bcast    [][]byte // Broadcast scratch outbox + memoized message
	bcastMsg []byte
	echo     [][]byte // snapshot scratch for the echo/forward pattern
	exiting  bool     // stopped: user defers calling Round unwind again
	skip     int      // rounds still to count as arrived without resuming (Idle)
	val      T
	pan      any
	panicked bool
}

type crun[T any] struct {
	g      *graph.Graph
	seed   int64
	delta  int
	status []uint8
	verts  []*cvert[T]
}

var _ Process = (*cvert[int])(nil)

func (p *cvert[T]) ID() int        { return p.id }
func (p *cvert[T]) N() int         { return p.run.g.N() }
func (p *cvert[T]) Deg() int       { return p.run.g.Deg(p.idx) }
func (p *cvert[T]) MaxDegree() int { return p.run.delta }

func (p *cvert[T]) NeighborID(port int) int {
	g := p.run.g
	return g.ID(int(g.Neighbors(p.idx)[port]))
}

func (p *cvert[T]) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(VertexSeed(p.run.seed, p.id)))
	}
	return p.rng
}

func (p *cvert[T]) Round(out [][]byte) [][]byte {
	if p.exiting {
		panic(compiledAbort{})
	}
	deg := p.Deg()
	if out != nil && len(out) != deg {
		panic(fmt.Sprintf("dist: vertex id %d sent %d messages on %d ports", p.id, len(out), deg))
	}
	if len(out) > 0 && p.inbox != nil && &out[0] == &p.inbox[0] {
		// Echo pattern: the caller forwards the slice Round returned, whose
		// slots delivery recycles. Snapshot the headers, as proc.Round does.
		if p.echo == nil {
			p.echo = make([][]byte, deg)
		}
		copy(p.echo, out)
		out = p.echo
	}
	p.out = out
	if !p.yield(struct{}{}) {
		// The interpreter stopped this coroutine: unwind, running user
		// defers on the way out (any Round they call hits the exiting guard).
		p.exiting = true
		panic(compiledAbort{})
	}
	if p.inbox == nil {
		p.inbox = make([][]byte, deg)
	}
	return p.inbox
}

// idle is Idle's fast path: one silent yield, after which the interpreter
// counts the vertex as arrived with a nil outbox for k−1 more rounds without
// resuming its coroutine. Messages sent to it meanwhile are charged and
// dropped exactly as during a Round(nil) loop, and an abort mid-span unwinds
// it from this one park.
func (p *cvert[T]) idle(k int) {
	p.skip = k - 1
	p.Round(nil)
}

func (p *cvert[T]) Broadcast(msg []byte) [][]byte {
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

// RunCompiled interprets pi.f on a fresh Tally; see InterpretOn.
func (pi procInterp[T]) RunCompiled(g *graph.Graph, env CompiledEnv, outputs []T) (Stats, error) {
	t := env.NewTally()
	err := InterpretOn(g, env, t, pi.f, outputs)
	return t.Stats, err
}

// InterpretOn runs f at every vertex of g as CompileProcess's form does, but
// accounts into t — which may already hold the rounds of earlier phases,
// its round cap included — instead of a fresh Tally. Flat compiled forms
// use it to interpret one phase between flat passes on the same Tally; the
// phase's rounds then follow the earlier ones exactly as they do inside one
// per-vertex body.
//
// It drives the coroutine generation round by round: sequential release in
// vertex order (Lockstep's order), then one scatter delivery over the CSR
// arrays with the scheduler's exact accounting.
func InterpretOn[T any](g *graph.Graph, env CompiledEnv, t *Tally, f func(Process) T, outputs []T) error {
	n := g.N()
	cr := &crun[T]{g: g, seed: env.Seed, delta: g.MaxDegree(), status: make([]uint8, n), verts: make([]*cvert[T], n)}
	for v := 0; v < n; v++ {
		p := &cvert[T]{run: cr, idx: v, id: g.ID(v)}
		p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
			p.yield = yield
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(compiledAbort); ok {
						return
					}
					p.panicked, p.pan = true, r
				}
			}()
			p.val = f(p)
		})
		cr.verts[v] = p
	}
	abort := func() {
		// Unwind every coroutine: finished ones are no-ops, parked ones run
		// their user defers, never-started ones never run.
		for _, p := range cr.verts {
			p.stop()
		}
	}
	var written []slotRef
	active := append([]*cvert[T](nil), cr.verts...)
	for len(active) > 0 {
		for _, p := range active {
			if p.skip > 0 {
				p.skip-- // parked in Idle: arrives again with a nil outbox
				continue
			}
			cr.status[p.idx] = statusRunning
			if _, yielded := p.next(); yielded {
				cr.status[p.idx] = statusYielded
				continue
			}
			if p.panicked {
				err := fmt.Errorf("dist: vertex id %d panicked: %v", p.id, p.pan)
				abort()
				return err
			}
			cr.status[p.idx] = statusDone
			outputs[p.idx] = p.val
		}
		arrived := active[:0]
		for _, p := range active {
			if cr.status[p.idx] == statusYielded {
				arrived = append(arrived, p)
			}
		}
		if len(arrived) == 0 {
			return nil
		}
		if err := t.StartRound(len(arrived)); err != nil {
			abort()
			return err
		}
		for _, sr := range written {
			cr.verts[sr.idx].inbox[sr.port] = nil
		}
		written = written[:0]
		for _, p := range arrived {
			out := p.out
			if out == nil {
				continue
			}
			p.out = nil
			nbrs := g.Neighbors(p.idx)
			rp := g.ReversePorts(p.idx)
			for port, msg := range out {
				if msg == nil {
					continue
				}
				t.Message(len(msg))
				u := nbrs[port]
				if cr.status[u] != statusYielded {
					continue // halted this round or earlier: drop
				}
				q := cr.verts[u]
				if q.inbox == nil {
					q.inbox = make([][]byte, g.Deg(int(u)))
				}
				q.inbox[rp[port]] = msg
				written = append(written, slotRef{idx: u, port: rp[port]})
			}
		}
		active = arrived
	}
	return nil
}
