package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
)

// toggleOps returns k non-edges of spec's base graph as an insert batch and
// the matching delete batch: applying both returns the session to the same
// edge set, so request costs can be compared at different log lengths.
func toggleOps(t testing.TB, spec exp.GraphSpec, k int) (ins, del []exp.Mutation) {
	t.Helper()
	g, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N() && len(ins) < k; u++ {
		v := (u + g.N()/2) % g.N()
		if u < v && !g.HasEdge(u, v) {
			ins = append(ins, exp.Mutation{Op: exp.OpInsert, U: u, V: v})
			del = append(del, exp.Mutation{Op: exp.OpDelete, U: u, V: v})
		}
	}
	if len(ins) < k {
		t.Fatalf("only %d of %d toggle edges", len(ins), k)
	}
	return ins, del
}

// TestLiveSessionCostIndependentOfLog: a base-less request on a live durable
// session costs its batch, not the session's history. The same requests —
// one mutate batch and one colors read, from the same graph state — are
// measured with 1k and with 32k records in the log; their allocation must
// not grow with it. (A request path that re-reads the log allocates more
// than the log's size on every request.)
func TestLiveSessionCostIndependentOfLog(t *testing.T) {
	s := New(walConfig(t.TempDir()))
	defer s.Close()
	base := exp.GraphSpec{Family: "gnm", N: 64, M: 160, Seed: 1}
	ins, del := toggleOps(t, base, 8)
	if _, _, err := s.Mutate(MutateRequest{Session: "c", Base: &base}); err != nil {
		t.Fatal(err)
	}
	var history []exp.Mutation
	for len(history) < 1<<10 {
		history = append(append(history, ins...), del...)
	}
	grow := func(records int64) {
		for s.Stats().WALAppends < records {
			if _, _, err := s.Mutate(MutateRequest{Session: "c", Ops: history}); err != nil {
				t.Fatal(err)
			}
		}
	}
	const rounds = 16
	perRequest := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < rounds; i++ {
			for _, ops := range [][]exp.Mutation{ins, del} {
				if _, _, err := s.Mutate(MutateRequest{Session: "c", Ops: ops}); err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.Mutate(MutateRequest{Session: "c", Colors: true}); err != nil {
					t.Fatal(err)
				}
			}
		}
		runtime.ReadMemStats(&ms)
		return (ms.TotalAlloc - before) / (4 * rounds)
	}
	grow(1 << 10)
	perRequest() // warm the result cache and the repair pools
	short := perRequest()
	grow(32 << 10)
	long := perRequest()
	walBytes := s.Stats().Sessions[0].WALBytes
	t.Logf("bytes allocated per request: %d with a 1k-record log, %d with 32k (log is %d bytes)", short, long, walBytes)
	if long > 2*short {
		t.Fatalf("a request allocates %d bytes with a 32k-record log, %d with 1k: cost grows with history", long, short)
	}
}

// TestMutateResponsesTearFree: with two writers on one session, every
// mutate response reports one committed state. Its (fingerprint, m) pair is
// the pair of a commit on the session's feed, its totals count exactly that
// commit's seq, and its coloring is the one every other response for the
// same fingerprint carries — never parts of different commits.
func TestMutateResponsesTearFree(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	base := exp.GraphSpec{Family: "gnm", N: 48, M: 120, Seed: 2}
	g, err := base.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Mutate(MutateRequest{Session: "t", Base: &base}); err != nil {
		t.Fatal(err)
	}
	sub, _, err := s.hub.subscribe("t", -1)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.unsubscribe()

	const writers, batches = 2, 40
	type state struct {
		fp string
		m  int
	}
	// seqs lists, per committed state, the commit seqs that produced it (a
	// toggle can return the session to an earlier state).
	seqs := map[state]map[int64]bool{}
	var last int64
	stop := make(chan struct{})
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for last < writers*batches {
			frame, st, _ := sub.next(stop, true)
			if st != subFrame {
				return
			}
			var ev DeltaEvent
			data := frame[bytes.Index(frame, []byte("data: "))+len("data: "):]
			if err := json.Unmarshal(bytes.TrimSpace(data), &ev); err != nil {
				t.Error(err)
				return
			}
			k := state{ev.Fingerprint, ev.M}
			if seqs[k] == nil {
				seqs[k] = map[int64]bool{}
			}
			seqs[k][ev.Seq] = true
			last = ev.Seq
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	var responses []*MutateResponse
	for w := 0; w < writers; w++ {
		// Each writer toggles its own edge, so every batch applies in
		// whatever order the session serializes the two writers.
		u, v := 2*w, 2*w+g.N()/2
		ins := []exp.Mutation{{Op: exp.OpInsert, U: u, V: v}}
		del := []exp.Mutation{{Op: exp.OpDelete, U: u, V: v}}
		if g.HasEdge(u, v) {
			ins, del = del, ins
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				ops := ins
				if i%2 == 1 {
					ops = del
				}
				resp, _, err := s.Mutate(MutateRequest{Session: "t", Ops: ops, Colors: i%4 < 2})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				responses = append(responses, resp)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	select {
	case <-fed:
	case <-time.After(10 * time.Second):
	}
	close(stop)
	<-fed
	if last != writers*batches {
		t.Fatalf("feed stopped at seq %d of %d", last, writers*batches)
	}
	colors := map[string][]int{}
	for _, r := range responses {
		if !seqs[state{r.Fingerprint, r.M}][r.Totals.Mutations] {
			t.Fatalf("response (fingerprint %.12s, m %d, mutations %d) matches no committed state", r.Fingerprint, r.M, r.Totals.Mutations)
		}
		if r.Colors == nil {
			continue
		}
		if len(r.Colors) != r.M {
			t.Fatalf("response carries %d colors for m=%d", len(r.Colors), r.M)
		}
		if prev, ok := colors[r.Fingerprint]; ok && !reflect.DeepEqual(prev, r.Colors) {
			t.Fatalf("two colorings for fingerprint %.12s", r.Fingerprint)
		}
		colors[r.Fingerprint] = r.Colors
	}
}
