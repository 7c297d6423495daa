package main

import (
	"net/http"
	"testing"
)

// TestServerTimeouts: the listener bounds header reads and idle keep-alives
// but never a response, so subscriptions can stream through indefinitely.
func TestServerTimeouts(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout=%v IdleTimeout=%v, want both set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout=%v, want 0 (SSE streams are long-lived)", srv.WriteTimeout)
	}
}
