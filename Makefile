# Developer entry points. The repository is plain `go build`/`go test`;
# these targets just bundle the flags the CI pipeline and the benchmark of
# record (perfbench, BENCHMARK.json) standardize on.

GO ?= go

.PHONY: all build test race lint cover fuzz-smoke golden-update bench figures clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the invariants-as-code analyzer suite (cmd/repolint,
# DESIGN.md §12) over every package in the module, production and test
# files alike. Non-zero exit on any finding; waivers need a reasoned
# //repolint:allow annotation.
lint:
	$(GO) run ./cmd/repolint

race:
	$(GO) test -race ./...

# cover mirrors the CI coverage gate locally (the ratcheted baseline lives
# in .github/workflows/ci.yml).
cover:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# fuzz-smoke runs the CI fuzz budget against both strict JSON decoders.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDecodeScenario -fuzztime=10s ./internal/experiment/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSpec -fuzztime=10s ./internal/campaign/

# golden-update regenerates the byte-level regression corpus under
# testdata/golden/ after an intentional output change; commit the rewritten
# files with an explanation of why the bytes moved.
golden-update:
	$(GO) test -run TestGolden -update -count=1 .

# bench runs the benchmark of record (BENCHMARK.json, perfbench/README.md)
# on each of its workloads: repeated runs, every output checked, one JSON
# line of medians per workload. For one workload or a traced per-layer
# split, call perfbench/run.sh directly.
bench:
	for w in spms-400 spms-1024-dbf spms-169-faults-mobility figures-quick; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 30 --trace 0 || exit 1; \
	done

figures:
	$(GO) run ./cmd/figures -quick

clean:
	rm -rf coverage.out .bench_build
