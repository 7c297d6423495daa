package dist

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/wire"
)

// engineRun is one engine's result of a run: Result on success, the error
// text otherwise.
type engineRun[T any] struct {
	res *Result[T]
	err string
}

// runEveryEngine runs f on g under all four engines (Compiled through the
// coroutine interpreter, so Idle takes its fast path there).
func runEveryEngine[T any](g *graph.Graph, f func(Process) T, opts ...Option) map[string]engineRun[T] {
	runs := map[string]engineRun[T]{}
	for name, e := range map[string][]Option{
		"goroutines": {WithEngine(Goroutines)},
		"lockstep":   {WithEngine(Lockstep)},
		"sharded":    {WithEngine(Sharded), WithShards(3)},
		"compiled":   {WithEngine(Compiled)},
	} {
		res, err := RunAlgo(g, Algo[T]{Vertex: f, Compiled: CompileProcess(f)}, append(e, opts...)...)
		r := engineRun[T]{res: res}
		if err != nil {
			r.err = err.Error()
		}
		runs[name] = r
	}
	return runs
}

// requireAgree fails unless every engine run matches want exactly: Outputs,
// Stats, and error text.
func requireAgree[T any](t *testing.T, label string, want engineRun[T], runs map[string]engineRun[T]) {
	t.Helper()
	for name, r := range runs {
		if r.err != want.err {
			t.Fatalf("%s/%s: err %q, want %q", label, name, r.err, want.err)
		}
		if want.res == nil {
			continue
		}
		if !reflect.DeepEqual(r.res.Outputs, want.res.Outputs) || r.res.Stats != want.res.Stats {
			t.Fatalf("%s/%s: diverged: stats %v, want %v", label, name, r.res.Stats, want.res.Stats)
		}
	}
}

// roundLoop is Idle's reference semantics: k calls of Round(nil).
func roundLoop(v Process, k int) {
	for ; k > 0; k-- {
		v.Round(nil)
	}
}

// idleSpans mixes idle spans (k = 0, 1 and long) with broadcast rounds, so
// neighbors send to idling vertices, and vertices halt at different times —
// some while a neighbor is mid-span.
func idleSpans(idle func(Process, int)) func(Process) []int {
	return func(v Process) []int {
		rng := v.Rand()
		phases := 2 + rng.Intn(5)
		sum := 0
		var hist []int
		for r := 0; r < phases; r++ {
			if (v.ID()+r)%2 == 0 {
				k := []int{0, 1, 2, 9, 40}[rng.Intn(5)]
				idle(v, k)
				hist = append(hist, -k)
				continue
			}
			for _, m := range v.Broadcast(wire.EncodeInts(v.ID(), r)) {
				if m == nil {
					continue
				}
				vals, err := wire.DecodeInts(m, 2)
				if err != nil {
					panic(err)
				}
				sum += vals[0] * (vals[1] + 1)
			}
			hist = append(hist, sum)
		}
		return hist
	}
}

// TestIdleAcrossEngines pins dist.Idle: on every engine it is exactly k
// Round(nil) calls — the same Outputs, Stats (messages sent to an idler
// charged and dropped) and error text — including when a neighbor halts
// mid-span, the round cap trips inside a span, another vertex panics while
// one idles, and a wrapper Process without the fast path calls it.
func TestIdleAcrossEngines(t *testing.T) {
	t.Run("spans", func(t *testing.T) {
		for _, g := range []*graph.Graph{graph.Path(2), graph.Cycle(7), graph.Complete(9), graph.GNM(80, 300, 4), graph.Star(12)} {
			for seed := int64(0); seed < 3; seed++ {
				want := runEveryEngine(g, idleSpans(roundLoop), WithSeed(seed))["lockstep"]
				if want.err != "" {
					t.Fatal(want.err)
				}
				requireAgree(t, g.String(), want, runEveryEngine(g, idleSpans(Idle), WithSeed(seed)))
			}
		}
	})

	t.Run("exact", func(t *testing.T) {
		// Vertex 1 idles 5 rounds, then listens once; vertex 2 broadcasts 6
		// times. The five messages sent into the span are charged and
		// dropped; only the sixth arrives.
		runs := runEveryEngine(graph.Path(2), func(v Process) int {
			if v.ID() == 1 {
				Idle(v, 0)
				Idle(v, 5)
				got := 0
				for _, m := range v.Round(nil) {
					if m != nil {
						got = int(m[0])
					}
				}
				return got
			}
			for r := 1; r <= 6; r++ {
				v.Broadcast([]byte{byte(r)})
			}
			return 0
		})
		want := engineRun[int]{res: &Result[int]{Outputs: []int{6, 0}, Stats: Stats{Rounds: 6, Bytes: 6, MaxMessageBytes: 1, Activations: 12}}}
		requireAgree(t, "exact", want, runs)
	})

	t.Run("cap-inside-span", func(t *testing.T) {
		span := func(idle func(Process, int)) func(Process) int {
			return func(v Process) int {
				v.Broadcast([]byte{1})
				idle(v, 100)
				return 0
			}
		}
		want := runEveryEngine(graph.Cycle(5), span(roundLoop), WithMaxRounds(17))["lockstep"]
		if !strings.Contains(want.err, "round cap 17") {
			t.Fatalf("reference err = %q, want round cap 17", want.err)
		}
		requireAgree(t, "cap", want, runEveryEngine(graph.Cycle(5), span(Idle), WithMaxRounds(17)))
	})

	t.Run("panic-while-idling", func(t *testing.T) {
		var errs []string
		for name, e := range map[string]Engine{"goroutines": Goroutines, "lockstep": Lockstep, "sharded": Sharded, "compiled": Compiled} {
			unwound := make(chan struct{})
			f := func(v Process) int {
				switch v.ID() {
				case 1:
					defer close(unwound)
					Idle(v, 50)
				case 4:
					roundLoop(v, 3)
					panic("kaboom")
				default:
					for {
						v.Round(nil)
					}
				}
				return 0
			}
			_, err := RunAlgo(graph.Cycle(6), Algo[int]{Vertex: f, Compiled: CompileProcess(f)}, WithEngine(e), WithShards(2))
			if err == nil || !strings.Contains(err.Error(), "vertex id 4 panicked: kaboom") {
				t.Fatalf("%s: err = %v, want vertex 4 panic", name, err)
			}
			errs = append(errs, err.Error())
			select {
			case <-unwound:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: the idling vertex's defers never ran", name)
			}
		}
		for _, e := range errs[1:] {
			if e != errs[0] {
				t.Fatalf("error text differs across engines: %q vs %q", e, errs[0])
			}
		}
	})

	t.Run("wrapper-fallback", func(t *testing.T) {
		// A wrapper Process does not carry the interpreter's fast path, so
		// Idle spends its span through the wrapper's own Round.
		wrapped := func(v Process) int {
			w := &countingProc{Process: v}
			Idle(w, 7)
			v.Broadcast([]byte{byte(v.ID())})
			return w.rounds
		}
		direct := func(v Process) int {
			Idle(v, 7)
			v.Broadcast([]byte{byte(v.ID())})
			return 7
		}
		g := graph.Complete(5)
		want := runEveryEngine(g, direct)["lockstep"]
		requireAgree(t, "wrapper", want, runEveryEngine(g, wrapped))
	})
}

// countingProc is a Process wrapper, like lgsim's virtual vertices, that
// counts the rounds spent through it.
type countingProc struct {
	Process
	rounds int
}

func (c *countingProc) Round(out [][]byte) [][]byte {
	c.rounds++
	return c.Process.Round(out)
}
