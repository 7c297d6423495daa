package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/service"
)

// churnBench is the churn fixture: one WAL-backed colord (no fsync), one
// session, and one SSE subscriber following it.
type churnBench struct {
	node   *node
	walDir string
	muts   []exp.Mutation
	hc     *http.Client
	// pos is how many stream ops session round 0 has applied.
	pos  int
	sub  *subscriber
	stop context.CancelFunc
}

const (
	churnWarmBatches = 4
	churnFixedReads  = 128
)

// churnSetup starts colord with a write-ahead log in a fresh temp dir under
// tmp, creates the session (base graph build, initial coloring, log
// creation), subscribes to it, and commits churnWarmBatches batches plus one
// read before the window.
func churnSetup(seed int64, tmp string) (func() (bench, error), error) {
	muts, err := churnStream(seed)
	if err != nil {
		return nil, err
	}
	return func() (bench, error) {
		dir, err := os.MkdirTemp(tmp, "wal-")
		if err != nil {
			return nil, err
		}
		cfg := serverConfig()
		cfg.WALDir = dir
		n, err := startNode(cfg)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		b := &churnBench{node: n, walDir: dir, muts: muts, hc: &http.Client{}}
		if err := b.setup(); err != nil {
			b.close()
			return nil, err
		}
		return b, nil
	}, nil
}

func churnSession(round int) string { return "churn-" + strconv.Itoa(round) }

func (b *churnBench) setup() error {
	if _, err := b.post(service.MutateRequest{Session: churnSession(0), Base: &churnBase}); err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	b.stop = cancel
	sub, err := subscribe(ctx, b.node.url(), churnSession(0))
	if err != nil {
		return err
	}
	b.sub = sub
	for k := 0; k < churnWarmBatches; k++ {
		if _, err := b.post(service.MutateRequest{Session: churnSession(0), Ops: b.muts[b.pos : b.pos+churnBatch]}); err != nil {
			return err
		}
		b.pos += churnBatch
	}
	_, err = b.post(service.MutateRequest{Session: churnSession(0), Colors: true})
	return err
}

func (b *churnBench) close() {
	if b.stop != nil {
		b.stop()
	}
	if b.sub != nil {
		<-b.sub.done
	}
	b.node.close()
	b.hc.CloseIdleConnections()
	os.RemoveAll(b.walDir)
}

// post sends one mutate request and returns the body of a 200.
func (b *churnBench) post(req service.MutateRequest) ([]byte, error) {
	resp, err := b.hc.Post(b.node.url()+"/v1/mutate", "application/json", bytes.NewReader(mustJSON(req)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("mutate: status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// churnSample is a response kept for verification, with the stream position
// (round, ops applied) the session was at when it answered.
type churnSample struct {
	round, pos int
	read       bool
	fixed      bool
	body       []byte
}

// run streams batches closed-loop for d, with a colors:true read after every
// churnReadEvery-th request. When the stream runs out the writer rolls over
// to a fresh session from the same base; rollovers are counted.
func (b *churnBench) run(d time.Duration, tr *tracer, rep *report) error {
	before, err := b.node.stats(b.hc)
	if err != nil {
		return err
	}
	var (
		samples []churnSample
		spans   []span
		round   int
		pos     = b.pos
		reads   int
		batches int
		// committed is the last seq of session round 0, the one the
		// subscriber follows.
		committed = int64(b.pos)
	)
	start := time.Now()
	deadline := start.Add(d)
	win := newWindow(start, d)
	for k := 0; time.Now().Before(deadline); k++ {
		req := service.MutateRequest{Session: churnSession(round)}
		read := k%churnReadEvery == churnReadEvery-1
		if read {
			req.Colors = true
		} else {
			if pos+churnBatch > len(b.muts) {
				round++
				rep.rollovers++
				pos = 0
				req.Session, req.Base = churnSession(round), &churnBase
			}
			req.Ops = b.muts[pos : pos+churnBatch]
		}
		rep.attempted++
		traced := tr != nil && k%traceEvery == 0
		var sp span
		if traced {
			sp = span{ID: tr.id(), Name: "request.mutate", Start: tr.now()}
			if read {
				sp.Name = "request.read"
			}
			sp.Req = sp.ID
		}
		t0 := time.Now()
		body, err := b.post(req)
		lat := time.Since(t0)
		if traced {
			sp.End = tr.now()
			spans = append(spans, sp)
		}
		if err != nil {
			rep.fail(err)
			continue
		}
		rep.ok++
		win.add(lat)
		if read {
			// The first reads are the fixed set colors_used averages over.
			if reads < churnFixedReads || reads%8 == 0 {
				samples = append(samples, churnSample{round: round, pos: pos, read: true, fixed: reads < churnFixedReads, body: body})
			}
			reads++
			continue
		}
		pos += churnBatch
		if round == 0 {
			committed = int64(pos)
		}
		rep.mutations += churnBatch
		if batches < 16 || batches%16 == 0 {
			samples = append(samples, churnSample{round: round, pos: pos, body: body})
		}
		batches++
	}
	rep.elapsed = time.Since(start)
	rep.rssMB = peakRSSMB()
	tr.add(spans...)
	rep.lat = win.stats()
	b.checkFeed(committed, rep)
	after, err := b.node.stats(b.hc)
	if err != nil {
		return err
	}
	rep.statz = sumStatz([]service.ServiceStats{after}).sub(sumStatz([]service.ServiceStats{before}))
	if rep.statz.walErrors != 0 || rep.statz.walAppends != rep.statz.mutations {
		rep.fail(fmt.Errorf("wal: %d appends and %d errors for %d mutations", rep.statz.walAppends, rep.statz.walErrors, rep.statz.mutations))
	}
	return b.verify(samples, rep)
}

// checkFeed waits for the subscriber to catch up with the committed
// sequence, then reads its tally: a seq gap without an overflow event fails
// the run.
func (b *churnBench) checkFeed(committed int64, rep *report) {
	deadline := time.Now().Add(10 * time.Second)
	for b.sub.seq() < committed && !b.sub.ended() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	b.stop()
	<-b.sub.done
	s := b.sub
	rep.delta = summarize(s.lat)
	rep.overflows = s.overflows
	if s.err != nil {
		rep.fail(fmt.Errorf("subscriber: %w", s.err))
	}
	if s.gaps > 0 {
		rep.fail(fmt.Errorf("subscriber: %d seq gaps without an overflow event", s.gaps))
	}
	if s.last < committed && s.overflows == 0 {
		rep.fail(fmt.Errorf("subscriber stopped at seq %d of %d", s.last, committed))
	}
}

// verify replays the stream into a client-side mirror and checks each
// sampled response at the position it was taken.
func (b *churnBench) verify(samples []churnSample, rep *report) error {
	var (
		m     *mirror
		round = -1
		at    int
		used  int
		fixed int
	)
	for _, s := range samples {
		if s.round != round {
			var err error
			if m, err = newMirror(churnBase); err != nil {
				return err
			}
			round, at = s.round, 0
		}
		for ; at < s.pos; at++ {
			m.apply(b.muts[at])
		}
		if s.read {
			n, err := m.session(s.body)
			if err != nil {
				rep.fail(err)
				continue
			}
			rep.verified++
			if s.fixed {
				used += n
				fixed++
			}
			continue
		}
		var resp service.MutateResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			rep.fail(err)
			continue
		}
		if resp.Applied != churnBatch || resp.M != len(m.edges) {
			rep.fail(fmt.Errorf("mutate at op %d: applied %d, m %d; want %d, %d", s.pos, resp.Applied, resp.M, churnBatch, len(m.edges)))
			continue
		}
		rep.verified++
	}
	rep.colorsUsed = float64(used) / float64(max(fixed, 1))
	return nil
}

// subscriber follows one session's SSE feed: it checks that delta seqs are
// consecutive from hello and records commit-to-receipt latency per delta.
type subscriber struct {
	done chan struct{}

	mu        sync.Mutex
	last      int64 // last seq seen (hello's, then each delta's)
	over      bool  // overflow or close event seen
	lat       []time.Duration
	gaps      int
	overflows int
	err       error
}

func (s *subscriber) seq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

func (s *subscriber) ended() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.over
}

// subscribe connects and returns once hello has arrived; the stream is then
// consumed in the background until ctx is cancelled or the stream ends.
func subscribe(ctx context.Context, base, session string) (*subscriber, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/subscribe?session="+session, nil)
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{}
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	s := &subscriber{done: make(chan struct{})}
	rd := bufio.NewReaderSize(resp.Body, 1<<16)
	hello := make(chan error, 1)
	go func() {
		defer close(s.done)
		defer tr.CloseIdleConnections()
		defer resp.Body.Close()
		s.consume(ctx, rd, hello)
	}()
	if err := <-hello; err != nil {
		<-s.done
		return nil, err
	}
	return s, nil
}

func (s *subscriber) consume(ctx context.Context, rd *bufio.Reader, hello chan<- error) {
	greeted := false
	greet := func(err error) {
		if !greeted {
			greeted = true
			hello <- err
		}
	}
	defer greet(fmt.Errorf("subscribe: stream ended before hello"))
	var (
		event []byte
		id    int64 = -1
		data  []byte
	)
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			if ctx.Err() == nil && err != io.EOF {
				s.mu.Lock()
				s.err = err
				s.mu.Unlock()
			}
			return
		}
		line = line[:len(line)-1]
		switch {
		case len(line) == 0:
			now := time.Now()
			s.mu.Lock()
			switch string(event) {
			case "hello":
				var h service.HelloEvent
				if err := json.Unmarshal(data, &h); err != nil {
					s.mu.Unlock()
					greet(fmt.Errorf("subscribe: hello: %w", err))
					return
				}
				s.last = h.Seq
				greet(nil)
			case "delta":
				if id != s.last+1 {
					s.gaps++
				}
				s.last = id
				if i := bytes.Index(data, []byte(`"ts":`)); i >= 0 {
					rest := data[i+len(`"ts":`):]
					if j := bytes.IndexByte(rest, '}'); j >= 0 {
						rest = rest[:j]
					}
					if ts, err := strconv.ParseInt(string(rest), 10, 64); err == nil {
						s.lat = append(s.lat, now.Sub(time.Unix(0, ts)))
					}
				}
			case "overflow":
				s.overflows++
				s.over = true
			case "close":
				s.over = true
			}
			s.mu.Unlock()
			event, id, data = event[:0], -1, nil
		case bytes.HasPrefix(line, []byte("id: ")):
			if v, err := strconv.ParseInt(string(line[4:]), 10, 64); err == nil {
				id = v
			}
		case bytes.HasPrefix(line, []byte("event: ")):
			event = append(event[:0], line[7:]...)
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data[:0], line[6:]...)
		}
	}
}
