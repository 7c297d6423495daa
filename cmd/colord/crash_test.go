package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/dynamic"
	"repro/internal/exp"
	"repro/internal/service"
)

// buildColord compiles the daemon once per test run.
func buildColord(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "colord")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build colord: %v\n%s", err, out)
	}
	return bin
}

// startColord launches the daemon on an ephemeral port and waits for its
// address handshake.
func startColord(t *testing.T, bin, walDir string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-wal-dir", walDir,
		"-workers", "2",
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start colord: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			return cmd, "http://" + strings.TrimSpace(string(data))
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatal("colord never wrote its address file")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashRecoveryMatchesOracle is the durability fortress: a real colord
// process SIGKILLed mid-churn — no shutdown, no flush, possibly mid-commit —
// restarted on the same WAL directory, must recover to an exact prefix of
// the mutation history: its state equals a never-killed oracle at some k
// between the last acknowledged op and the last op sent, and continuing the
// remaining ops converges both to identical final states.
func TestCrashRecoveryMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a child process; skipped in -short")
	}
	bin := buildColord(t)
	walDir := t.TempDir()

	base := exp.GraphSpec{Family: "gnm", N: 48, M: 120, Seed: 11}
	stream := exp.MutationStream{Kind: "mix", Base: base, Ops: 600, Seed: 17}
	g, muts, err := stream.Generate()
	if err != nil {
		t.Fatal(err)
	}

	cmd, url := startColord(t, bin, walDir)
	client := &http.Client{Timeout: 2 * time.Second}
	mutate := func(url string, req service.MutateRequest) (*service.MutateResponse, error) {
		body, _ := json.Marshal(req)
		resp, err := client.Post(url+"/v1/mutate", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var mr service.MutateResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		return &mr, nil
	}

	if _, err := mutate(url, service.MutateRequest{Session: "crash", Base: &base}); err != nil {
		cmd.Process.Kill()
		t.Fatalf("create session: %v", err)
	}

	// Churn op by op; an assassin SIGKILLs the process while commits are in
	// flight. It is armed by progress (a third of the ops sent), not by a
	// wall-clock timer, so a fast daemon cannot finish the churn first; it
	// then races the requests that follow. Track what was acknowledged vs
	// what was sent: the recovered state may legitimately land anywhere in
	// [acked, sent].
	arm := make(chan struct{})
	go func() {
		<-arm
		cmd.Process.Signal(syscall.SIGKILL)
	}()
	acked, sent := 0, 0
	ackedPrints := []string{}
	for i, op := range muts {
		if i == len(muts)/3 {
			close(arm)
		}
		sent++
		mr, err := mutate(url, service.MutateRequest{Session: "crash", Ops: []exp.Mutation{op}})
		if err != nil {
			break // the kill landed
		}
		acked++
		ackedPrints = append(ackedPrints, mr.Fingerprint)
	}
	if sent <= len(muts)/3 {
		close(arm) // the churn failed before arming; release the assassin
	}
	cmd.Process.Signal(syscall.SIGKILL)
	cmd.Wait()
	if acked == len(muts) {
		t.Fatalf("churn finished all %d ops before the kill — no crash exercised", len(muts))
	}
	t.Logf("killed mid-churn: %d acked, %d sent, %d total", acked, sent, len(muts))

	// Restart on the same WAL directory; the session must come back without
	// the client resupplying anything but the name.
	cmd2, url2 := startColord(t, bin, walDir)
	defer func() {
		cmd2.Process.Signal(syscall.SIGKILL)
		cmd2.Wait()
	}()
	// An empty-ops mutate returns the session totals (a pure Colors read is
	// cache-keyed and deliberately carries none); the coloring comes second.
	stat, err := mutate(url2, service.MutateRequest{Session: "crash"})
	if err != nil {
		t.Fatalf("recover session: %v", err)
	}
	rec, err := mutate(url2, service.MutateRequest{Session: "crash", Colors: true})
	if err != nil {
		t.Fatalf("read recovered colors: %v", err)
	}
	k := int(stat.Totals.Mutations)
	if k < acked || k > sent {
		t.Fatalf("recovered to %d mutations, want within [acked=%d, sent=%d]", k, acked, sent)
	}

	// The never-killed oracle at prefix k: fingerprint and coloring must be
	// byte-identical — the WAL lost nothing it acknowledged and invented
	// nothing it didn't.
	oracle, err := dynamic.New(g, dynamic.Config{Engine: dist.Compiled})
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	if _, _, err := oracle.Apply(muts[:k]); err != nil {
		t.Fatal(err)
	}
	if rec.Fingerprint != oracle.Fingerprint().String() {
		t.Fatalf("recovered fingerprint %s != oracle at prefix %d", rec.Fingerprint, k)
	}
	if !reflect.DeepEqual(rec.Colors, oracle.Colors()) {
		t.Fatal("recovered coloring diverges from the never-killed oracle")
	}
	if k == acked && k > 0 && ackedPrints[k-1] != rec.Fingerprint {
		// When recovery lands exactly on the last acked op, the fingerprint
		// the client was told at ack time is the fingerprint that survived.
		t.Fatalf("recovered fingerprint differs from the ack-time fingerprint of op %d", k)
	}

	// Zero divergence going forward: replay the remaining ops into the
	// recovered daemon and the oracle — they must converge identically.
	rest := muts[k:]
	final, err := mutate(url2, service.MutateRequest{Session: "crash", Ops: rest})
	if err != nil {
		t.Fatalf("continue after recovery: %v", err)
	}
	if _, _, err := oracle.Apply(rest); err != nil {
		t.Fatal(err)
	}
	if final.Fingerprint != oracle.Fingerprint().String() {
		t.Fatal("post-recovery continuation diverged from the oracle")
	}
	finalColors, err := mutate(url2, service.MutateRequest{Session: "crash", Colors: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(finalColors.Colors, oracle.Colors()) {
		t.Fatal("post-recovery coloring diverged from the oracle")
	}
	if final.Totals.Mutations != int64(len(muts)) {
		t.Fatalf("final mutation count %d, want %d", final.Totals.Mutations, len(muts))
	}
}
