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

	"repro/internal/obs"
	"repro/internal/serve"
)

// serveCmd runs the analysis daemon until SIGTERM/SIGINT, then drains:
// admission stops, in-flight jobs finish, and the process exits 0. A
// second signal — or the drain timeout — forces shutdown instead.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7787", "listen address (use :0 for an ephemeral port)")
	workers := fs.Int("workers", 0, "analysis worker pool width (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "queue budget: jobs admitted but unfinished before shedding (0 = 4x workers)")
	jobTimeout := fs.Duration("job-timeout", 30*time.Second, "per-attempt watchdog deadline")
	maxAttempts := fs.Int("max-attempts", 3, "attempts before a failing job is quarantined")
	retryBackoff := fs.Duration("retry-backoff", 100*time.Millisecond, "base retry backoff, doubled per attempt")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "max wait for in-flight jobs on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve takes no positional arguments")
	}

	reg := obs.NewRegistry()
	srv := serve.New(serve.Config{
		Workers:      *workers,
		QueueBudget:  *queue,
		JobTimeout:   *jobTimeout,
		MaxAttempts:  *maxAttempts,
		RetryBackoff: *retryBackoff,
		Obs:          reg,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	fmt.Printf("mcchecker serve: listening on http://%s (POST /jobs, /healthz, /metrics, /debug/pprof/)\n", ln.Addr())

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("mcchecker serve: signal received; draining (new submissions refused)")
	srv.BeginDrain()

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		drainErr <- srv.Drain(ctx)
	}()
	select {
	case err := <-drainErr:
		if err != nil {
			srv.Close()
			hs.Close()
			return fmt.Errorf("serve: %w", err)
		}
	case <-sig:
		fmt.Println("mcchecker serve: second signal; forcing shutdown")
		srv.Close()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(shutCtx)
	fmt.Println("mcchecker serve: drained; bye")
	return nil
}
