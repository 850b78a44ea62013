// Command xuiserve is the long-running experiment daemon: it accepts
// job submissions over HTTP, executes them through the shared
// experiment registry, and answers repeated submissions — including
// after a restart — from a persistent content-addressed run cache.
//
//	xuiserve -addr :8378 -cachedir /var/cache/xui
//
// It serves until SIGINT or SIGTERM, then stops accepting connections
// and lets in-flight responses finish (bounded by shutdownGrace). A
// running job then gets a short grace of its own before it is cancelled
// and failed (Server.Close), so a long job cannot hold the process.
// Load is measured from outside: bench/'s serve-warm and serve-mixed
// workloads drive the daemon, and internal/server's load tests check
// its cache and admission behaviour under -race.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"xui/internal/runcache"
	"xui/internal/server"
)

// shutdownGrace bounds how long a stop signal waits for in-flight
// responses (a trace chunk mid-copy, a result body) before the
// remaining connections are closed.
const shutdownGrace = 10 * time.Second

func main() {
	addr := flag.String("addr", "127.0.0.1:8378", "listen address")
	cacheDir := flag.String("cachedir", "", "root of the persistent run cache; empty keeps results in memory only")
	queueDepth := flag.Int("queue", 64, "admission high-water mark: queued jobs beyond this are shed with 429")
	jobWorkers := flag.Int("jobworkers", 0, "per-job sweep worker budget cap; 0 means GOMAXPROCS")
	traceDir := flag.String("tracedir", "", "directory for per-job streaming trace files; defaults under -cachedir")
	flag.Parse()

	err := run(*addr, server.Config{
		CacheDir:      *cacheDir,
		QueueDepth:    *queueDepth,
		MaxJobWorkers: *jobWorkers,
		TraceDir:      *traceDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run boots the daemon on addr and serves until SIGINT/SIGTERM.
func run(addr string, cfg server.Config) error {
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "xuiserve: listening on http://%s (version %s, cachedir %q)\n",
		ln.Addr(), runcache.CodeVersion(), cfg.CacheDir)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	return serve(ln, s.Handler(), stop)
}

// serve serves h on ln until stop fires, then shuts down gracefully:
// the listener closes at once, and in-flight requests get shutdownGrace
// to finish before their connections are closed under them.
func serve(ln net.Listener, h http.Handler, stop <-chan os.Signal) error {
	httpSrv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-stop:
	}
	fmt.Fprintln(os.Stderr, "xuiserve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "xuiserve: %v; closing remaining connections\n", err)
		httpSrv.Close()
	}
	return nil
}
