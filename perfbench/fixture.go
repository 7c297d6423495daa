package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/service"
)

// serverConfig is colord's default configuration (cmd/colord with no
// flags): the compiled engine and one worker per GOMAXPROCS.
func serverConfig() service.Config {
	return service.Config{Workers: runtime.GOMAXPROCS(0), Engine: dist.Compiled}
}

// node is one in-process colord: a Service behind a loopback HTTP server.
type node struct {
	svc  *service.Service
	srv  *http.Server
	addr string // host:port
	done chan struct{}
}

func startNode(cfg service.Config) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{svc: service.New(cfg), addr: ln.Addr().String(), done: make(chan struct{})}
	n.srv = &http.Server{Handler: n.svc.Handler()}
	go func() {
		defer close(n.done)
		n.srv.Serve(ln)
	}()
	return n, nil
}

func (n *node) url() string { return "http://" + n.addr }

// close stops the listener and every open connection, waits for the serve
// loop to return, then stops the service.
func (n *node) close() {
	n.srv.Close()
	<-n.done
	n.svc.Close()
}

// stats reads the node's /statz over HTTP.
func (n *node) stats(c *http.Client) (service.ServiceStats, error) {
	var st service.ServiceStats
	resp, err := c.Get(n.url() + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("statz: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// gatewayFleet is an in-process colorgate in front of colord nodes, each
// filling result-cache misses from its peers as cmd/colord -peers does.
type gatewayFleet struct {
	nodes []*node
	gw    *cluster.Gateway
	srv   *http.Server
	addr  string
	done  chan struct{}
}

func startGateway(nodes int) (*gatewayFleet, error) {
	f := &gatewayFleet{done: make(chan struct{})}
	fillers := make([]atomic.Pointer[cluster.Filler], nodes)
	var peers []string
	for i := 0; i < nodes; i++ {
		cfg := serverConfig()
		slot := &fillers[i]
		cfg.RemoteFill = func(graphName, key string) []byte {
			if fl := slot.Load(); fl != nil {
				return fl.Fill(graphName, key)
			}
			return nil
		}
		n, err := startNode(cfg)
		if err != nil {
			f.closeNodes()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		peers = append(peers, n.url())
	}
	for i := range fillers {
		fillers[i].Store(cluster.NewFiller(peers, peers[i], nil, 0))
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Peers: peers})
	if err != nil {
		f.closeNodes()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gw.Close()
		f.closeNodes()
		return nil, err
	}
	f.gw, f.addr = gw, ln.Addr().String()
	f.srv = &http.Server{Handler: gw.Handler()}
	go func() {
		defer close(f.done)
		f.srv.Serve(ln)
	}()
	return f, nil
}

func (f *gatewayFleet) peers() []string {
	var out []string
	for _, n := range f.nodes {
		out = append(out, n.url())
	}
	return out
}

func (f *gatewayFleet) closeNodes() {
	for _, n := range f.nodes {
		n.close()
	}
}

func (f *gatewayFleet) close() {
	f.srv.Close()
	<-f.done
	f.gw.Close()
	f.closeNodes()
}
