package main

import (
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestServeDrainsInFlightOnStop pins graceful shutdown: a stop signal
// that arrives while a handler still holds a request closes the
// listener, but the request runs to completion and its client gets the
// full 200 response; serve returns nil only after that.
func TestServeDrainsInFlightOnStop(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	entered := make(chan struct{})
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseOnce)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "drained")
	})

	stop := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- serve(ln, h, stop) }()

	type reply struct {
		code int
		body string
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- reply{resp.StatusCode, string(b), err}
	}()

	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the handler")
	}
	stop <- syscall.SIGTERM

	// Shutdown begins by closing the listener: wait until new
	// connections are refused.
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after stop")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The handler still holds its request, so serve must not return.
	select {
	case err := <-served:
		t.Fatalf("serve returned %v with a request in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	releaseOnce()
	r := <-got
	if r.err != nil || r.code != http.StatusOK || r.body != "drained" {
		t.Fatalf("in-flight request got code %d body %q err %v, want 200 %q", r.code, r.body, r.err, "drained")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v, want nil", err)
		}
	case <-time.After(shutdownGrace):
		t.Fatal("serve did not return after the in-flight request finished")
	}
}
