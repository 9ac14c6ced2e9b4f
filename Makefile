GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet lint fuzz loc bench ab examples

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Determinism-under-concurrency suite: the whole tree under the race
# detector.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# The invariant analyzers of internal/analysis (DESIGN.md §7) alone: the
# sweep over ./internal/... and ./cmd/... that `make test` also runs, the
# analyzers' fixtures, and the DESIGN.md table held to the suite. Fails
# with file:line diagnostics on any violation; suppress deliberate
# exceptions with //emlint:allow. allocguard requires every
# //emlint:zeroalloc function to be measured by a testing.AllocsPerRun
# guard; inlinecheck asks the compiler (-gcflags=-m=2) whether every
# //emlint:hotpath function still inlines.
lint:
	$(GO) test -count=1 -run 'TestRepoInvariantsClean|TestFixtures|TestDesignTableNamesSuite' ./internal/analysis

# Short fuzz smoke over the text-format parsers, the matcher loader, the
# pair-scoring kernels, interleaved corpus writes and the /v1 request
# bodies (a job, a corpus add and delete, a match). Override FUZZTIME for a
# longer soak, e.g. `make fuzz FUZZTIME=5m`.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParseRule -fuzztime=$(FUZZTIME) ./internal/rules
	$(GO) test -run=^$$ -fuzz=FuzzParseSet -fuzztime=$(FUZZTIME) ./internal/rules
	$(GO) test -run=^$$ -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/table
	$(GO) test -run=^$$ -fuzz=FuzzImport -fuzztime=$(FUZZTIME) ./internal/ml
	$(GO) test -run=^$$ -fuzz=FuzzColumnMatchesFn -fuzztime=$(FUZZTIME) ./internal/feature
	$(GO) test -run=^$$ -fuzz=FuzzCorpusOps -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run=^$$ -fuzz=FuzzJobsBody -fuzztime=$(FUZZTIME) ./internal/cloud
	$(GO) test -run=^$$ -fuzz=FuzzCorpusAddBody -fuzztime=$(FUZZTIME) ./internal/cloud
	$(GO) test -run=^$$ -fuzz=FuzzCorpusDeleteBody -fuzztime=$(FUZZTIME) ./internal/cloud
	$(GO) test -run=^$$ -fuzz=FuzzMatchBody -fuzztime=$(FUZZTIME) ./internal/cloud

# "Least code" (ROADMAP aim 2) as a number: lines of non-test,
# non-testdata Go per top-level package, and the total outside bench/.
loc:
	@for d in bench cmd/* examples internal/*; do \
		printf '%7d %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)" $$d; \
	done
	@printf '%7d total outside bench/\n' "$$(find cmd examples internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)"

# The repo's one benchmark (BENCHMARK.json, bench/README.md): every
# workload over the real /v1/match handler and the Figure-2 batch run.
# Writes bench/out/; compare two sets of results with
# `$(GO) run ./bench -compare a.json b.json`.
bench:
	$(GO) run ./bench -workload all

# The paired protocol a performance claim needs (bench/README.md): BASE and
# HEAD in two git worktrees, N alternating runs of the whole benchmark,
# `bench -compare` per pair, then quartiles, medians and wins per metric.
# About five minutes a pair.
BASE ?= HEAD~1
HEAD ?= HEAD
N ?= 10
ab:
	bash scripts/bench_ab.sh $(BASE) $(HEAD) $(N)

# The five example programs, run (CI only compiled them): each must exit
# 0; their output is discarded. Seconds in total.
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done
