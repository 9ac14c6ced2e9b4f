package main

import (
	"context"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestRunServesUntilCancelled: run answers on its listener, and cancelling
// its context — what SIGINT and SIGTERM do in main — makes it shut the
// server down, run its deferred closes and return nil; afterwards nothing
// listens on the port.
func TestRunServesUntilCancelled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", addr, "-batch-workers", "1", "-user-workers", "1", "-crowd-workers", "1"})
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/v1/healthz")
		if err == nil {
			if err := resp.Body.Close(); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("/v1/healthz answered %d, close: %v", resp.StatusCode, err)
			}
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	body := `{"corpus":"default","records":[{"id":"a1","attrs":{"name":"acme corp"}}]}`
	resp, err := http.Post("http://"+addr+"/v1/corpus/add", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/corpus/add answered %d, close: %v", resp.StatusCode, err)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancellation, want nil", err)
		}
	case <-time.After(shutdownGrace + 5*time.Second):
		t.Fatal("run did not return after cancellation")
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatalf("the port still accepts connections after run returned (close: %v)", conn.Close())
	}
}

// TestRunReportsErrors: a flag error and an unusable address come back as
// errors instead of exiting the process.
func TestRunReportsErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag: run returned nil")
	}
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:99999"}); err == nil {
		t.Error("port out of range: run returned nil")
	}
	if err := run(context.Background(), []string{"-h"}); err != nil {
		t.Errorf("-h: run returned %v, want nil", err)
	}
}
