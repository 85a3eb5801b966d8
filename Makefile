# Tier-1+ gate: vet + build + machlint + full tests + race detector on the
# concurrent packages. CI and every PR run this.
check:
	./scripts/check.sh

# Custom stdlib-only static analysis (see DESIGN.md §5.5). Exits nonzero on
# any finding; waive individual lines with a justified //machlint:allow.
lint:
	go run ./cmd/machlint ./...

# Regenerate the committed lint artifacts: the suppression ledger
# (lint_ledger.txt), the allocfree heap-allocation budget (lint_allocs.txt)
# and the deadexport ledger (lint_deadexports.txt). make check fails when
# any of them is stale.
lint-ledger:
	go run ./cmd/machlint -ledger ./... > lint_ledger.txt
	go run ./cmd/machlint -write-allocs ./...
	go run ./cmd/machlint -write-deadexports ./...

test:
	go test ./...

race:
	go test -race ./...

# Engine micro-benchmark; writes BENCH_engine.json in the repo root.
bench-engine:
	go run ./cmd/machbench -exp engine

# Wire-format benchmark: measured bytes per codec scheme on a loopback
# deployment; writes BENCH_comm.json in the repo root.
bench-comm:
	go run ./cmd/machbench -exp comm

# Sampling control-plane scale benchmark: naive vs indexed decide across
# device populations up to 100k; writes BENCH_scale.json in the repo root.
bench-scale:
	go run ./cmd/machbench -exp scale

# Telemetry overhead benchmark: the control-plane workload with telemetry
# off / metrics only / full trace; writes BENCH_telemetry.json in the repo
# root.
bench-telemetry:
	go run ./cmd/machbench -exp telemetry

bench:
	go test -bench=. -benchmem ./...

# Non-test source lines per package for the tree excluding benchmark/;
# `make loc REV=<rev>` adds the per-package delta against a revision.
loc:
	./scripts/loc.sh $(REV)

.PHONY: check lint lint-ledger test race bench bench-engine bench-comm bench-scale bench-telemetry loc
