// Command cloudmatcher serves the CloudMatcher microservice catalog over
// HTTP — the cloud-native shape of the envisioned Magellan ecosystem
// (Figure 6). The API is versioned under /v1 (an unversioned path is a
// plain 404):
//
//	GET  /v1/services      list the 18 basic + 2 composite services (Table 4)
//	POST /v1/jobs          submit a workflow DAG; returns step-by-step results
//	GET  /v1/healthz       liveness plus per-engine queue/worker state
//	GET  /v1/metrics       Prometheus text exposition (pipeline + engine series)
//	GET  /v1/corpus        serving corpora and their stats
//	POST /v1/corpus/add    add/update records in a serving corpus
//	POST /v1/corpus/delete delete records from a serving corpus
//	POST /v1/match         match one record against a serving corpus
//	GET  /debug/pprof/     Go profiler endpoints (unversioned)
//
// Example job (self-service Falcon over inline CSVs):
//
//	curl -s localhost:8080/v1/jobs -d '{
//	  "name": "demo", "seed": 1,
//	  "gold": [["a1","b1"]],
//	  "steps": [
//	    {"id":"ua","service":"upload_dataset","args":{"csv":"id,name\na1,acme corp\n","out":"a"}},
//	    {"id":"ub","service":"upload_dataset","args":{"csv":"id,name\nb1,acme corporation\n","out":"b"}},
//	    {"id":"ka","service":"set_key","args":{"table":"a","key":"id"},"after":["ua"]},
//	    {"id":"kb","service":"set_key","args":{"table":"b","key":"id"},"after":["ub"]},
//	    {"id":"f","service":"falcon","args":{"a":"a","b":"b"},"after":["ka","kb"]}
//	  ]}'
//
// Example incremental serving session against the default corpus:
//
//	curl -s localhost:8080/v1/corpus/add -d '{
//	  "corpus": "default",
//	  "records": [{"id":"a1","attrs":{"name":"acme corp"}}]}'
//	curl -s localhost:8080/v1/match -d '{
//	  "corpus": "default",
//	  "record": {"id":"q","attrs":{"name":"acme corporation"}}}'
//
// The three engines are counting semaphores (-batch-workers, -user-workers
// and -crowd-workers slots): each ready step of a job is a fragment that
// waits for a slot of its engine, or for its job to end. SIGINT and SIGTERM
// stop the listener and give requests in flight 15 s; a job still running
// then is stopped — the step inside its service finishes, the fragments
// waiting for a slot leave, the remaining steps settle as skipped — and
// the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cloudmatcher:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled, then stops accepting, lets requests in
// flight finish (up to shutdownGrace) and closes the match pool and the
// metamanager before returning. A job still in flight when the grace runs
// out is stopped by that Close: the fragment running a service finishes it
// (Close waits for that), fragments waiting for an engine slot leave, and
// the job's remaining steps settle as skipped.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("cloudmatcher", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	batch := fs.Int("batch-workers", 0, "batch engine slots: fragments it runs at once (0 = cloud.EngineConfig's default)")
	users := fs.Int("user-workers", 0, "user-interaction engine slots (0 = cloud.EngineConfig's default)")
	crowd := fs.Int("crowd-workers", 0, "crowd engine slots (0 = cloud.EngineConfig's default)")
	timeout := fs.Duration("job-timeout", 0, "per-job deadline (0 = none)")
	maxBody := fs.Int64("max-body", 8<<20, "request body cap in bytes")
	corpus := fs.String("corpus", "default", "name of the built-in serving corpus (empty disables /v1/corpus and /v1/match)")
	matchWorkers := fs.Int("match-workers", 0, "match pool worker count (0 = GOMAXPROCS; reads are lock-free, so workers scale with cores)")
	matchQueue := fs.Int("match-queue", 0, "match queue capacity before 429s (0 = 4x workers)")
	matchLimit := fs.Int("match-limit", 0, "cap /v1/match results to the n best-scoring pairs (0 = all)")
	compactAfter := fs.Int("compact-after", 0, "tombstones before the corpus compacts and republishes its snapshot (0 = default 1024, -1 = never)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	// One registry shared by the HTTP server, the metamanager, and (via
	// JobContext.Metrics) the pipeline code the services call — so
	// /v1/metrics shows engine state and per-stage timings side by side.
	reg := obs.NewRegistry()
	mm := cloud.NewMetamanager(cloud.NewRegistry(), cloud.EngineConfig{
		BatchWorkers: *batch,
		UserWorkers:  *users,
		CrowdWorkers: *crowd,
		Metrics:      reg,
	})
	defer mm.Close()

	opts := []cloud.ServerOption{
		cloud.WithMetrics(reg),
		cloud.WithRequestTimeout(*timeout),
		cloud.WithMaxBodySize(*maxBody),
	}
	if *corpus != "" {
		c := serve.NewCorpus(serve.WithMetrics(reg),
			serve.WithLimit(*matchLimit), serve.WithCompactAfter(*compactAfter))
		corpora := serve.NewRegistry()
		if err := corpora.Register(*corpus, c, serve.NewPool(c, *matchWorkers, *matchQueue)); err != nil {
			return err
		}
		defer corpora.Close()
		opts = append(opts, cloud.WithCorpora(corpora))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// A /v1/jobs reply is written when the job ends, so the write deadline
	// follows the job deadline; without one it is long enough for the
	// Table-1-sized jobs and a pprof profile, and still finite.
	writeTimeout := 10 * time.Minute
	if *timeout > 0 {
		writeTimeout = *timeout + time.Minute
	}
	srv := &http.Server{
		Handler:           cloud.NewServer(mm, opts...).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	basic, composite := mm.Registry().Counts()
	fmt.Printf("cloudmatcher: %d basic + %d composite services on %s\n", basic, composite, ln.Addr())

	// On cancellation Shutdown stops the listener, which makes Serve
	// return at once, and then waits for requests in flight; run must not
	// return (and close the pool and the metamanager) before that wait is
	// over.
	drained := make(chan error, 1)
	stop := context.AfterFunc(ctx, func() {
		grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		drained <- srv.Shutdown(grace)
	})
	defer stop()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return <-drained
}

// shutdownGrace bounds how long requests in flight may take to finish once
// a signal has arrived.
const shutdownGrace = 15 * time.Second
