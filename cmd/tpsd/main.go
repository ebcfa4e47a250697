// Tpsd is placement-as-a-service: it serves the scenario engine over
// HTTP/JSON. Clients upload .tpn netlists, submit scenario scripts as
// jobs, stream live JSONL traces, and cancel runs; the server bounds
// concurrency with a job queue (429 on overflow) and divides an
// analyzer-worker budget between running jobs. A submission with an
// entrants array runs a portfolio race (see internal/portfolio) as one
// job: the worker grant becomes the race width and the trace stream
// merges every entrant's events, tagged per entrant, ending with one
// race_verdict record and the job's terminal flow_end.
//
// Usage:
//
//	tpsd -addr :8077 -concurrency 2 -queue 8 -workers 8
//
// On SIGINT/SIGTERM the server drains: new submissions are rejected,
// queued and running jobs finish, and after -drain the remaining jobs
// are canceled (each rolls back to a consistent state and emits a
// terminal flow_end trace record).
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

	"tps/internal/serve"

	// Register every built-in transform with the scenario engine.
	_ "tps/internal/core"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tpsd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "localhost:8077", "listen address (use :0 for an ephemeral port)")
	concurrency := flag.Int("concurrency", 2, "jobs run simultaneously")
	queue := flag.Int("queue", 8, "queued jobs beyond the running ones before submissions get 429")
	workers := flag.Int("workers", 0, "total analyzer fan-out budget divided between jobs (0 = GOMAXPROCS)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain window before in-flight jobs are canceled")
	flag.Parse()

	srv := serve.New(serve.Config{
		Concurrency: *concurrency,
		QueueDepth:  *queue,
		Workers:     *workers,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("tpsd listening on http://%s\n", ln.Addr())

	// A client that never finishes its headers must not hold a connection
	// forever. No WriteTimeout: trace streams are long-lived.
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-httpErr:
		return err
	case got := <-sig:
		fmt.Printf("tpsd: %s — draining (window %s)\n", got, *drain)
	}

	// Drain jobs first so trace streams reach their flow_end, then stop
	// the HTTP listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Printf("tpsd: drain window expired; in-flight jobs canceled\n")
	}
	hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer hcancel()
	_ = hs.Shutdown(hctx)
	fmt.Println("tpsd: bye")
	return nil
}
