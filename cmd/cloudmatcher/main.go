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
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	batch := flag.Int("batch-workers", 4, "batch engine worker count")
	users := flag.Int("user-workers", 16, "user-interaction engine worker count")
	crowd := flag.Int("crowd-workers", 16, "crowd engine worker count")
	timeout := flag.Duration("job-timeout", 0, "per-job deadline (0 = none)")
	maxBody := flag.Int64("max-body", 8<<20, "request body cap in bytes")
	corpus := flag.String("corpus", "default", "name of the built-in serving corpus (empty disables /v1/corpus and /v1/match)")
	matchWorkers := flag.Int("match-workers", 0, "match pool worker count (0 = GOMAXPROCS; reads are lock-free, so workers scale with cores)")
	matchQueue := flag.Int("match-queue", 0, "match queue capacity before 429s (0 = 4x workers)")
	matchLimit := flag.Int("match-limit", 0, "cap /v1/match results to the n best-scoring pairs (0 = all)")
	compactAfter := flag.Int("compact-after", 0, "tombstones before the corpus compacts and republishes its snapshot (0 = default 1024, -1 = never)")
	flag.Parse()

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
			fmt.Fprintln(os.Stderr, "cloudmatcher:", err)
			os.Exit(1)
		}
		defer corpora.Close()
		opts = append(opts, cloud.WithCorpora(corpora))
	}

	srv := cloud.NewServer(mm, opts...)
	basic, composite := mm.Registry().Counts()
	fmt.Printf("cloudmatcher: %d basic + %d composite services on %s\n", basic, composite, *addr)
	if err := http.ListenAndServe(*addr, srv.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, "cloudmatcher:", err)
		os.Exit(1)
	}
}
