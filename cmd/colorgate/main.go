// Command colorgate fronts a colord cluster: a stateless gateway that routes
// every request to the node where the answer already lives, by rendezvous
// hash — coloring reads by graph spec, dynamic sessions by name.
//
// Because colord is deterministic, any node can answer any read; routing is
// purely a cache- and session-locality play, so the gateway needs no state,
// no consensus, and no warm-up. Reads retry down the key's rank order on
// peer failure; mutations retry only on dial errors (nothing was sent, so
// nothing can have applied twice); SSE subscriptions stream through with
// per-chunk flushes.
//
// Usage:
//
//	colorgate -addr :7090 -peers http://n0:7080,http://n1:7080,http://n2:7080
//
// GET /statz reports the cluster plane: per-peer health gauges and the
// forwarded/retried/error counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "colorgate:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("colorgate", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":7090", "listen address (use :0 for an ephemeral port with -addr-file)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once listening")
		peers    = fs.String("peers", "", "comma-separated colord base URLs (required)")
		interval = fs.Duration("health-interval", 500*time.Millisecond, "peer health probe cadence")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peers == "" {
		return fmt.Errorf("-peers is required")
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Peers:          strings.Split(*peers, ","),
		HealthInterval: *interval,
	})
	if err != nil {
		return err
	}
	defer gw.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("addr file: %w", err)
		}
	}
	srv := newServer(gw.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	log.Printf("colorgate: routing %s across %s", bound, *peers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-sig:
		log.Printf("colorgate: shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
}

// Listener timeouts. A client gets readHeaderTimeout to send its request
// headers and a keep-alive connection closes after idleTimeout without a
// request. There is deliberately no WriteTimeout: subscriptions stream
// through the gateway for as long as their session lives.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer is colorgate's one http.Server constructor.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}
