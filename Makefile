GO ?= go
FUZZTIME ?= 10s

.PHONY: build test race vet lint fuzz loc bench bench-tokens bench-scaling bench-serve bench-serve-scaling

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

# emlint enforces the repo's concurrency, determinism, observability and
# performance-contract invariants (see DESIGN.md §7). Exit 1 with
# file:line diagnostics on any violation; suppress deliberate exceptions
# with //emlint:allow. The suite includes escapecheck, which compiles each
# //emlint:zeroalloc / //emlint:hotpath package with -gcflags=-m=2 and
# fails on any escape or inlining regression not grandfathered by
# lint/escape_baseline.json, and allocguard, which requires every
# zeroalloc function to carry a testing.AllocsPerRun guard. After a
# deliberate change (or a Go toolchain bump), refresh the baseline with:
#   $(GO) run ./cmd/emlint -update-baseline ./internal/... ./cmd/...
lint:
	$(GO) run ./cmd/emlint ./internal/... ./cmd/...

# Short fuzz smoke over the text-format parsers. Override FUZZTIME for a
# longer soak, e.g. `make fuzz FUZZTIME=5m`.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzParseRule -fuzztime=$(FUZZTIME) ./internal/rules
	$(GO) test -run=^$$ -fuzz=FuzzReadCSV -fuzztime=$(FUZZTIME) ./internal/table

# "Least code" (ROADMAP aim 2) as a number: lines of non-test,
# non-testdata Go per top-level package, and the total outside bench/.
loc:
	@for d in bench cmd/* examples internal/*; do \
		printf '%7d %s\n' "$$(find $$d -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)" $$d; \
	done
	@printf '%7d total outside bench/\n' "$$(find cmd examples internal -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l)"

# Regenerates BENCH_parallel.json: the workers x n scaling sweep over the
# similarity join and forest training. Warns (cores_ok=false) on a 1-core
# box; add -requirecores to refuse instead.
bench:
	$(GO) run ./cmd/benchem -exp parallel

# Smoke-size scaling sweep: same workloads and gates as `bench`, sized for
# CI. Fails on any output divergence from Workers=1, and on a runner with
# >= 4 cores also fails when workers=4 speedup drops below MINSPEEDUP
# (slightly under the 1.5x bar of the full bench to absorb shared-vCPU
# noise).
MINSPEEDUP ?= 1.3
bench-scaling:
	$(GO) run ./cmd/benchem -exp parallel -scalen 2000,20000 -scaleworkers 1,2,4 \
		-minspeedup $(MINSPEEDUP) -benchout /tmp/BENCH_parallel_smoke.json

# Regenerates BENCH_tokens.json (feature extraction with and without the
# interning cache, flat vs pointer forest, the Figure-2 guide). Exits
# non-zero if two paths ever disagree bit-for-bit.
bench-tokens:
	$(GO) run ./cmd/benchem -exp tokens

# Regenerates BENCH_serve.json: sustained QPS and tail latency of the
# incremental serving core across the ingest-interference sweep, the
# match-workers x ingest reader-scaling cells, plus the overload burst.
# Exits non-zero when the incrementally-maintained corpus diverges from a
# from-scratch rebuild, the flat forest diverges from the pointer
# classifier, backpressure never engages, or (on a >= 4-core box) the
# workers=4 query-only QPS scaling falls below 1.5x.
bench-serve:
	$(GO) run ./cmd/benchem -exp serve

# Smoke-size reader-scaling sweep: same gates as `bench-serve`, sized for
# CI. The QPS gate arms only when the runner has >= 4 cores (cores_ok);
# SERVEMINSPEEDUP sits slightly under the full bench's 1.5x bar to absorb
# shared-vCPU noise. The two identity gates (rebuild, flat-vs-pointer)
# hold at any core count.
SERVEMINSPEEDUP ?= 1.3
bench-serve-scaling:
	$(GO) run ./cmd/benchem -exp serve -serven 1500 -servequeries 600 \
		-serveworkers 1,2,4 -serveminspeedup $(SERVEMINSPEEDUP) \
		-serveout /tmp/BENCH_serve_smoke.json
