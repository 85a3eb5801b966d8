# Tier-1+ gate: vet + build + machlint + full tests + race detector over
# every package. CI and every PR run this.
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

# Regenerate the three committed BENCH_*.json files in the repo root: the
# wire-format benchmark (measured bytes per codec scheme on a loopback
# deployment), the engine at fleet scale (dense/stream mobility × shard sweep
# up to 1M devices) and the telemetry tier overheads. The scale sweep takes
# minutes and peaks near 1 GiB.
bench-all:
	for exp in comm scale telemetry; do go run ./cmd/machbench -exp $$exp || exit 1; done

bench:
	go test -bench=. -benchmem ./...

# Non-test source lines per package for the tree excluding benchmark/;
# `make loc REV=<rev>` adds the per-package delta against a revision.
loc:
	./scripts/loc.sh $(REV)

.PHONY: check lint lint-ledger test race bench bench-all loc
