package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/dynamic"
	"repro/internal/exp"
)

// The streaming feed's wire format: Server-Sent Events (text/event-stream).
// Four event types flow on a subscription, every one a single prerendered
// write:
//
//	event: hello     — once, at subscribe: the session's state at
//	                   registration (HelloEvent). Deltas follow from here.
//	event: delta     — one per committed mutation, in commit order
//	                   (DeltaEvent; the SSE id: field carries Seq).
//	event: overflow  — the subscriber lagged more than the feed buffer and
//	                   is dropped (OverflowEvent); the stream then ends.
//	event: close     — the session ended (evicted, recreated, or service
//	                   shutdown; CloseEvent); the stream then ends.
//
// Delta frames are rendered once, at commit, and the identical bytes are
// written to every subscriber — the encode-at-fill discipline applied to
// fan-out.

// HelloEvent opens every subscription: the session's shape at registration.
// Seq is the seq the delta stream continues from — every subsequent delta
// carries Seq greater than this, the first exactly Seq+1 (the subscriber's
// cursor is placed before hello is rendered, so a delta racing the handshake
// is delivered too, never lost — at worst hello already reflects it).
//
// On a fresh subscription Seq is the session's committed-mutation count at
// registration. On a reconnect with Last-Event-ID, Resumed reports whether
// the stream picks up exactly where the client left off (Seq equals the
// client's last id, deltas continue with no gap); when the requested
// position is no longer retained, Resumed is false and Missed counts the
// deltas that are gone for good — the client must resync its mirror (re-read
// the full coloring) before trusting subsequent deltas.
type HelloEvent struct {
	Session     string `json:"session"`
	Seq         int64  `json:"seq"`
	Fingerprint string `json:"fingerprint"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Delta       int    `json:"delta"`
	// Resumed / Missed appear only on Last-Event-ID reconnects.
	Resumed bool   `json:"resumed,omitempty"`
	Missed  uint64 `json:"missed,omitempty"`
}

// DeltaEvent is one committed mutation's recolor delta: the op, the exact
// set of recolored edges, the repair scope, and the post-commit shape.
// Applying Op and Changed to a mirror of the previous state yields the
// state Fingerprint names (see dynamic.CommitEvent).
type DeltaEvent struct {
	Session     string                 `json:"session"`
	Seq         int64                  `json:"seq"`
	Op          exp.Mutation           `json:"op"`
	Fingerprint string                 `json:"fingerprint"`
	N           int                    `json:"n"`
	M           int                    `json:"m"`
	Delta       int                    `json:"delta"`
	Repair      dynamic.Report         `json:"repair"`
	Changed     []dynamic.ChangedColor `json:"changed,omitempty"`
	// TS is the commit wall-clock in Unix nanoseconds; subscribers measure
	// delivery latency as receive-time minus TS.
	TS int64 `json:"ts"`
}

// OverflowEvent tells a dropped subscriber how many deltas it can never
// recover; the client must resync (re-read the full coloring) before
// resubscribing.
type OverflowEvent struct {
	Session string `json:"session"`
	Missed  uint64 `json:"missed"`
}

// CloseEvent ends a stream whose session went away.
type CloseEvent struct {
	Session string `json:"session"`
	Reason  string `json:"reason"`
}

// sseFrame renders one SSE frame: optional id line, event name, one JSON
// data line, blank terminator. The payload types above contain no values
// json.Marshal can reject, so encoding cannot fail.
func sseFrame(id int64, event string, data any) []byte {
	var b bytes.Buffer
	if id >= 0 {
		fmt.Fprintf(&b, "id: %d\n", id)
	}
	fmt.Fprintf(&b, "event: %s\ndata: ", event)
	j, err := json.Marshal(data)
	if err != nil {
		panic("service: unmarshalable SSE payload: " + err.Error())
	}
	b.Write(j)
	b.WriteString("\n\n")
	return b.Bytes()
}

// deltaFrameBytes renders a commit's delta frame; called at most once per
// commit (and only when the session has subscribers), under the session
// maintainer's lock — so frames enter the feed in commit order.
func deltaFrameBytes(session string, ev dynamic.CommitEvent) []byte {
	return sseFrame(ev.Seq, "delta", DeltaEvent{
		Session:     session,
		Seq:         ev.Seq,
		Op:          ev.Op,
		Fingerprint: ev.Fingerprint.String(),
		N:           ev.N,
		M:           ev.M,
		Delta:       ev.Delta,
		Repair:      ev.Report,
		Changed:     ev.Changed,
		TS:          time.Now().UnixNano(),
	})
}

// serveSubscribe is GET /v1/subscribe?session=NAME: an SSE stream of the
// named session's recolor deltas. Admission: the session must exist (404),
// the global subscriber cap and the per-session quota must have room (429).
// The stream then runs until the client disconnects, the subscriber
// overflows, or the session ends.
//
// A reconnecting client sends the standard SSE Last-Event-ID header (the id
// of the last delta it processed — exactly what this stream's id: lines
// carry). The subscription then resumes from the hub's retained ring when
// the requested position is still there; otherwise the hello frame reports
// the irrecoverable gap in Missed so the client knows to resync. After a
// server restart the ring starts empty but the session's seq continues from
// the WAL replay, so the gap arithmetic stays exact across crashes.
func (s *Service) serveSubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("session")
	if name == "" {
		s.counters.stripe(0).badRequests.Add(1)
		httpError(w, http.StatusBadRequest, "subscribe needs a ?session=NAME query parameter")
		return
	}
	from := int64(-1)
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		id, err := strconv.ParseInt(v, 10, 64)
		if err != nil || id < 0 {
			s.counters.stripe(0).badRequests.Add(1)
			httpError(w, http.StatusBadRequest, fmt.Sprintf("Last-Event-ID %q is not a delta seq", v))
			return
		}
		from = id
	}
	ctr := s.counters.stripe(cacheHashString(name))
	sess := s.sessions.lookup(name)
	mt := (*dynamic.Maintainer)(nil)
	if sess != nil {
		mt = sess.maintainer()
	}
	if mt == nil {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q (create it with POST /v1/mutate first)", name))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	sub, ack, err := s.hub.subscribe(name, from)
	if err != nil {
		status := http.StatusTooManyRequests
		if errors.Is(err, errHubClosed) {
			status = http.StatusServiceUnavailable
		}
		httpError(w, status, err.Error())
		return
	}
	defer sub.unsubscribe()
	ctr.subscribes.Add(1)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream

	// The cursor was placed by subscribe, so the hello snapshot read here
	// can only be at or ahead of it: no delta is lost in the handshake.
	sum := mt.Summary(false)
	seq := sum.Stats.Mutations
	ev := HelloEvent{
		Session:     name,
		Seq:         seq,
		Fingerprint: sum.Fingerprint.String(),
		N:           sum.N,
		M:           sum.M,
		Delta:       sum.Delta,
	}
	if from >= 0 {
		switch {
		case ack >= 0:
			// The ring serves the stream from ack+1 on; commits (from, ack]
			// rotated out (none, when ack == from — an exact resume).
			ev.Seq = ack
			ev.Missed = uint64(ack - from)
			ev.Resumed = ev.Missed == 0
		case from <= seq:
			// No ring history (feed empty — e.g. the process restarted and
			// replayed the session from its WAL). The stream continues from
			// the session's current seq; everything between the client's
			// last id and now is gone.
			ev.Missed = uint64(seq - from)
			ev.Resumed = ev.Missed == 0
		default:
			// The client claims a seq this session has not reached — a
			// different incarnation (recreated without its WAL). Not
			// resumable; the hello's state is the truth to resync to.
		}
	}
	hello := sseFrame(-1, "hello", ev)
	if _, err := w.Write(hello); err != nil {
		return
	}
	flusher.Flush()

	cancel := r.Context().Done()
	for {
		frame, st, missed := sub.next(cancel, true)
		// Drain the backlog before flushing: a burst of commits becomes one
		// kernel write per subscriber, not one per frame.
		for st == subFrame {
			if _, err := w.Write(frame); err != nil {
				return
			}
			ctr.delivered.Add(1)
			frame, st, missed = sub.next(cancel, false)
		}
		switch st {
		case subIdle:
			flusher.Flush()
		case subOverflow:
			ctr.dropped.Add(1)
			w.Write(sseFrame(-1, "overflow", OverflowEvent{Session: name, Missed: missed}))
			flusher.Flush()
			return
		case subClosed:
			w.Write(sseFrame(-1, "close", CloseEvent{Session: name, Reason: "session closed"}))
			flusher.Flush()
			return
		case subCanceled:
			return
		}
	}
}
