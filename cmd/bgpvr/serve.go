package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bgpvr/internal/cli"
	"bgpvr/internal/obs"
	"bgpvr/internal/serve"
)

// serveArgs carries the parsed -serve* flags, most of them straight
// into the service's Config; of the shared flags serve mode reads
// -workers, -crash-dump and -soft-deadline.
type serveArgs struct {
	*cli.Run
	addr  string
	drain time.Duration
	cfg   serve.Config
}

// runServe runs the persistent render service until SIGINT/SIGTERM,
// then drains. The service owns the termination signals (they mean
// "drain", not "crash"), so when the flight recorder is armed it
// watches SIGQUIT only; a hung drain is still guarded by the
// recorder's soft deadline.
func runServe(a serveArgs, stderr io.Writer) error {
	log := slog.New(slog.NewTextHandler(stderr, nil))
	a.Watch(nil, syscall.SIGQUIT)
	a.cfg.Workers, a.cfg.Log = a.Workers, log
	s := serve.New(a.cfg)
	if err := s.Start(a.addr); err != nil {
		return err
	}
	fmt.Fprintf(a.Out, "render service: http://%s/ (POST /render, /status, /traces, /metrics, pprof)\n", s.Addr())
	obs.Note("serve mode: addr=%s workers=%d", s.Addr(), a.Workers)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	signal.Stop(sig)
	log.Info("draining", "signal", got.String(), "timeout", a.drain)
	ctx, cancel := context.WithTimeout(context.Background(), a.drain)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Info("drained, exiting")
	return nil
}
