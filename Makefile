GO ?= go
FUZZTIME ?= 10s
SERVE_ADDR ?= :8080
LOAD_ADDR ?= 127.0.0.1:8091
LOAD_N ?= 200
LOAD_C ?= 8

.PHONY: all build test race fuzz-short bench bench-e2e profile fmt vet lint loc check serve loadtest

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run every fuzz target briefly (go test -fuzz takes one target at a time).
fuzz-short:
	$(GO) test -run=^$$ -fuzz=FuzzEncodeDecodeWire -fuzztime=$(FUZZTIME) ./internal/flit/
	$(GO) test -run=^$$ -fuzz=FuzzFront -fuzztime=$(FUZZTIME) ./internal/explore/
	$(GO) test -run=^$$ -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/service/
	$(GO) test -run=^$$ -fuzz=FuzzJournalReplay -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run=^$$ -fuzz=FuzzStoreOpen -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run=^$$ -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/faultinject/

bench:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# The repository's one end-to-end benchmark (BENCHMARK.json is its contract,
# bench/README.md its manual): every workload, tracing off, ~140 s. It checks
# payload digests against bench/golden.json, so it also fails on any change
# to a simulated bit.
bench-e2e:
	$(GO) run ./bench

# CPU + heap profile of one big saturated point (a 32x32 mesh), the workload
# the intra-fabric worker pool targets. Inspect with:
#   go tool pprof $(PROFDIR)/cpu.pprof
PROFDIR ?= /tmp/quarc-prof
profile: build
	@mkdir -p $(PROFDIR)
	$(GO) run ./cmd/quarcsim -topo mesh -n 1024 -m 16 -beta 0 -rate 0.02 \
		-warmup 200 -cycles 2000 -drain 20000 \
		-cpuprofile $(PROFDIR)/cpu.pprof -memprofile $(PROFDIR)/mem.pprof
	@echo "profiles in $(PROFDIR)"

# Run the simulation-as-a-service daemon in the foreground.
serve:
	$(GO) run ./cmd/quarcd -addr $(SERVE_ADDR)

# Closed-loop serving benchmark: start a throwaway daemon, hammer it with
# quarcload, and tear it down. Fails unless every request succeeds.
loadtest:
	@mkdir -p bin
	$(GO) build -o bin/quarcd ./cmd/quarcd
	$(GO) build -o bin/quarcload ./cmd/quarcload
	@./bin/quarcd -addr $(LOAD_ADDR) -quiet & pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	./bin/quarcload -addr http://$(LOAD_ADDR) -n $(LOAD_N) -c $(LOAD_C)

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis. quarcvet (internal/lint) always runs — it is part of the
# module and enforces the two repo-specific invariants no test can state
# (determinism on every path, hot-path copy and allocation discipline) and
# its own //quarc: vocabulary. staticcheck and govulncheck run when installed: CI installs
# and caches them; a machine without them still gets the full quarcvet suite,
# but if they are present their findings fail the target.
lint:
	$(GO) run ./cmd/quarcvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

# Non-test Go lines per package (bench/ and the lint fixtures excluded): the
# number ROADMAP's "least code" aim is judged by. CI prints it on every run.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './internal/lint/testdata/*' \
		| xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' \
		| sort -k2

check: fmt vet lint build test
