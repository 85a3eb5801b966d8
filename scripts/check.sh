#!/usr/bin/env sh
# check.sh — the repo's tier-1+ gate: gofmt, vet, the asm and line budgets,
# build, a run of every example, machlint, the full test suite (default,
# -tags purego on the kernel packages, and -race over ./...; the root
# package's TestDocCitationsResolve holds DESIGN.md and README.md to the
# tree), the codec and frame fuzz smokes, the codec bench smoke, the
# observability smoke and the distributed smoke. Run via `make check` or
# directly. Every PR must pass.
#
# The fuzz smokes run with -fuzzminimizetime 1x: with the default (up to 60 s
# per input) a 10 s run on an empty build cache spends most of its budget
# minimizing the first new inputs it finds, at 0 execs/s, instead of fuzzing.
# A crasher is still written to testdata/fuzz, unminimized.
set -eu

cd "$(dirname "$0")/.."

# Every step's temporary files live under $tmp, and every background process
# is in $obs_pid or $fed_pids: one EXIT trap removes and stops them whether
# the gate passes or a step fails.
tmp=$(mktemp -d)
obs_pid="" fed_pids=""
trap 'kill $obs_pid $fed_pids 2>/dev/null || true; rm -rf "$tmp"' EXIT
trap 'exit 1' HUP INT TERM

echo "== gofmt -l . (every Go file is gofmt-clean)"
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "check: not gofmt-clean (run gofmt -w):" >&2; echo "$unformatted" >&2; exit 1; }

echo "== go vet ./... (asmdecl checks internal/tensor/kernels_amd64.s against its Go declarations)"
go vet ./...

# The asm pays rent (DESIGN.md §10, "Rent ledger"): a kernel that grows the
# file must fit the budget by deleting, or raise it in a change that states
# the pair ratio it bought.
asm_budget=1846
echo "== asm budget (internal/tensor/kernels_amd64.s ≤ $asm_budget lines)"
asm_lines=$(wc -l <internal/tensor/kernels_amd64.s)
[ "$asm_lines" -le "$asm_budget" ] || { echo "check: kernels_amd64.s has $asm_lines lines, over its budget of $asm_budget" >&2; exit 1; }

# So does the tree: a change that grows the scripts/loc.sh total past the
# budget raises it and states what the lines bought.
loc_budget=23991
echo "== line budget (scripts/loc.sh total ≤ $loc_budget non-test lines)"
loc_total=$(./scripts/loc.sh | awk '$1 == "total" { print $2 }')
[ "$loc_total" -le "$loc_budget" ] || { echo "check: the tree has $loc_total non-test lines, over its budget of $loc_budget" >&2; exit 1; }

echo "== go build ./..."
go build ./...

echo "== examples (each examples/*/main.go runs and exits 0)"
go build -o "$tmp/examples/" ./examples/...
for ex in "$tmp"/examples/*; do
	"$ex" >"$tmp/example.out" 2>&1 || { echo "check: examples/$(basename "$ex") failed:" >&2; cat "$tmp/example.out" >&2; exit 1; }
done

echo "== GOARCH=arm64 go build ./... (the pure-Go kernel fallback compiles)"
GOARCH=arm64 go build ./...

echo "== machlint ./... (DESIGN.md §5.5 invariants, allocfree budget, deadexport ledger)"
lint_t0=$(date +%s)
go run ./cmd/machlint ./...
lint_t1=$(date +%s)
echo "   lint wall time: $((lint_t1 - lint_t0))s"

echo "== machlint -ledger (committed suppression inventory is current)"
go run ./cmd/machlint -ledger ./... | diff - lint_ledger.txt \
	|| { echo "check: lint_ledger.txt is stale; regenerate with make lint-ledger" >&2; exit 1; }

echo "== go test ./..."
go test ./...

echo "== go test -tags purego (kernel sweeps, elementwise family, layer parity, and hfl's TestLayoutMatrix golden table — f64 and f32 engine runs — on the pure-Go kernels)"
go test -tags purego ./internal/tensor ./internal/nn ./internal/hfl

echo "== go test -race ./..."
go test -race ./...

echo "== codec fuzz smoke (FuzzDecode, 10 s from the committed seed corpus)"
go test -run '^$' -fuzz 'FuzzDecode' -fuzztime 10s -fuzzminimizetime 1x ./internal/codec

echo "== frame fuzz smoke (FuzzFrame, 10 s from the committed seed corpus)"
go test -run '^$' -fuzz 'FuzzFrame' -fuzztime 10s -fuzzminimizetime 1x ./internal/fed

echo "== codec bench smoke (every BenchmarkCodec / BenchmarkPlaneCoder case still runs, one iteration)"
go test -run '^$' -bench 'BenchmarkCodec|BenchmarkPlaneCoder' -benchtime 1x ./internal/codec >/dev/null

echo "== observability smoke (machsim -debug-addr, machtop scrape mid-run)"
go build -o "$tmp/machsim" ./cmd/machsim
go build -o "$tmp/machtop" ./cmd/machtop
# 600 steps ≈ 1 s: long enough that the poll below meets a live server.
"$tmp/machsim" -task mnist -strategy mach -steps 600 \
	-debug-addr 127.0.0.1:16060 -metrics-out "$tmp/snap.json" \
	>/dev/null 2>"$tmp/machsim.log" &
obs_pid=$!
# Poll /healthz until the debug server is up (the run itself takes longer).
obs_ok=0
for _ in $(seq 1 100); do
	if "$tmp/machtop" scrape -addr 127.0.0.1:16060 >"$tmp/scrape.out" 2>&1; then
		obs_ok=1
		break
	fi
	sleep 0.05
done
[ "$obs_ok" = 1 ] || { echo "check: machtop scrape never succeeded against a live machsim" >&2; \
	cat "$tmp/scrape.out" "$tmp/machsim.log" >&2; exit 1; }
cat "$tmp/scrape.out"
wait "$obs_pid" || { echo "check: machsim -debug-addr run failed" >&2; cat "$tmp/machsim.log" >&2; exit 1; }
obs_pid=""
# The final snapshot must diff cleanly against itself (machtop diff exit 0).
"$tmp/machtop" diff "$tmp/snap.json" "$tmp/snap.json" >/dev/null

echo "== distributed smoke (2 device hosts, 2 edges, a cloud: separate machnode processes, once under -codec delta and once under -codec raw; the two lossless codecs must write identical CSVs)"
go build -o "$tmp/machnode" ./cmd/machnode
# fed_addr waits for a node's "… on <addr>" line and prints the address.
fed_addr() {
	for _ in $(seq 1 200); do
		a=$(sed -n 's/^machnode: .* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$1")
		[ -n "$a" ] && { echo "$a"; return 0; }
		sleep 0.05
	done
	echo "check: machnode never listened: $1" >&2; cat "$1" >&2; return 1
}
# fed_run brings up a fresh cluster, runs its cloud under codec $1 into
# $tmp/$1.csv and stops the cluster.
fed_run() {
	hosts="" edges="" fed_pids=""
	for h in 0 1; do
		"$tmp/machnode" -role device -steps 10 -host-index $h -num-hosts 2 >"$tmp/$1-host$h.log" 2>&1 &
		fed_pids="$fed_pids $!"
	done
	for h in 0 1; do hosts="$hosts${hosts:+,}$(fed_addr "$tmp/$1-host$h.log")"; done
	for n in 0 1; do
		"$tmp/machnode" -role edge -steps 10 -edge-index $n -device-hosts "$hosts" >"$tmp/$1-edge$n.log" 2>&1 &
		fed_pids="$fed_pids $!"
	done
	for n in 0 1; do edges="$edges${edges:+,}$(fed_addr "$tmp/$1-edge$n.log")"; done
	"$tmp/machnode" -role cloud -steps 10 -codec "$1" -edge-addrs "$edges" -device-hosts "$hosts" \
		>"$tmp/$1.csv" 2>"$tmp/$1-cloud.log" \
		|| { echo "check: machnode cloud failed under -codec $1" >&2; cat "$tmp"/$1-*.log >&2; exit 1; }
	kill $fed_pids
	wait $fed_pids 2>/dev/null || true
	fed_pids=""
}
fed_run delta
fed_run raw
# The CI preset evaluates every step: a header and one row per step.
rows=$(($(wc -l <"$tmp/delta.csv") - 1))
[ "$rows" = 10 ] || { echo "check: machnode cloud wrote $rows evaluation rows, want 10" >&2; cat "$tmp/delta.csv" >&2; exit 1; }
diff "$tmp/delta.csv" "$tmp/raw.csv" >&2 \
	|| { echo "check: -codec raw and -codec delta histories differ" >&2; exit 1; }
echo "   $rows evaluations, raw ≡ delta"

echo "check: OK"
