GO ?= go

.PHONY: check fmt vet build test examples race lint perfbench bench-json bench-check serve-smoke

check: fmt vet lint build test examples race perfbench serve-smoke

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Determinism lint: no wall-clock, global randomness or map-order
# iteration in the packages whose outputs must be byte-identical across
# runs (see cmd/repolint).
lint:
	$(GO) run ./cmd/repolint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Run every example program (`go build` only compiles them); a non-zero
# exit fails the target.
examples:
	@for d in examples/*/; do \
		echo "$(GO) run ./$$d"; \
		$(GO) run ./$$d > /dev/null || exit 1; \
	done

# -short keeps the race gate in the low minutes: the heaviest
# sequential solves are skipped (plain `make test` still runs them
# race-free) while every concurrency path stays covered — the dse
# worker pool and its shared store, the region-solve store (concurrent
# Get/Put, singleflight), the core region scheduler's 4-worker
# byte-identity run and four concurrent facade plans sharing one
# program's front end through the store.
race:
	$(GO) test -race -short ./internal/obs/... ./internal/dse/... ./internal/ilp/... ./internal/core/... ./internal/solstore/... ./internal/serve/...
	$(GO) test -race -short -run '^TestSharedFrontEndConcurrent$$' .

# The end-to-end benchmark is a nested module (it replaces repro with
# this checkout), so the root `go build ./...` never compiles it: vet
# and test it on its own to catch root API changes that break it.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Perf trajectory: run the figure benches and the ILP, solstore and dse
# microbench suites, refresh BENCH_ilp.json (schema documented in
# EXPERIMENTS.md).
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_ilp.json

# Bench gate: re-measure the stable microbench suites and fail when any
# ns/op regresses past 2x the committed BENCH_ilp.json value, or when a
# deterministic work counter (lp-iters/op, nodes/op) differs from it.
bench-check:
	$(GO) run ./cmd/benchjson -suite ilp -check BENCH_ilp.json
	$(GO) run ./cmd/benchjson -suite solstore -check BENCH_ilp.json
	$(GO) run ./cmd/benchjson -suite obs -check BENCH_ilp.json
	$(GO) run ./cmd/benchjson -suite deps -check BENCH_ilp.json
	$(GO) run ./cmd/benchjson -suite serve -check BENCH_ilp.json

# Daemon smoke: start heteropard on an ephemeral port, POST one
# benchmark, assert the response is byte-identical to `heteropar
# -json`, scrape /metrics, and require a clean SIGTERM drain.
serve-smoke:
	./scripts/serve_smoke.sh
