#!/usr/bin/env sh
# check.sh — the repo's tier-1+ gate: vet, build, machlint, the full test
# suite (default, -tags purego on the kernel packages, and -race over
# ./...), the codec fuzz and bench smokes, the observability smoke and the
# distributed smoke. Run via `make check` or directly. Every PR must pass.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./... (asmdecl checks internal/tensor/kernels_amd64.s against its Go declarations: foldTermsAVX2, transBTilesAVX2, fold32AVX2, transB32TilesAVX2, machinePeakAVX2, machinePeak32AVX2, cpuHasAVX2; elementwise family: add{32,64}AVX2, addScalar{32,64}AVX2, axpy{32,64}AVX2, axpyDiff64AVX2, relu{32,64}AVX2, reluGrad{32,64}AVX2, maxPool{32,64}AVX2, addRows{32,64}AVX2, masterUpdateAVX2)"
go vet ./...

echo "== go build ./..."
go build ./...

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

echo "== go test -tags purego (kernel sweeps, elementwise family, layer parity and the f64 + f32 engine goldens on the pure-Go kernels)"
go test -tags purego ./internal/tensor ./internal/nn ./internal/hfl

echo "== go test -race ./..."
go test -race ./...

echo "== codec fuzz smoke (FuzzDecode, 10 s from the committed seed corpus)"
go test -run '^$' -fuzz 'FuzzDecode' -fuzztime 10s ./internal/codec

echo "== codec bench smoke (every BenchmarkCodec / BenchmarkPlaneCoder case still runs, one iteration)"
go test -run '^$' -bench 'BenchmarkCodec|BenchmarkPlaneCoder' -benchtime 1x ./internal/codec >/dev/null

echo "== observability smoke (machsim -debug-addr, machtop scrape mid-run)"
obs_tmp=$(mktemp -d)
go build -o "$obs_tmp/machsim" ./cmd/machsim
go build -o "$obs_tmp/machtop" ./cmd/machtop
# 600 steps ≈ 1 s: long enough that the poll below meets a live server.
"$obs_tmp/machsim" -task mnist -strategy mach -steps 600 \
	-debug-addr 127.0.0.1:16060 -metrics-out "$obs_tmp/snap.json" \
	>/dev/null 2>"$obs_tmp/machsim.log" &
obs_pid=$!
# Poll /healthz until the debug server is up (the run itself takes longer).
obs_ok=0
for _ in $(seq 1 100); do
	if "$obs_tmp/machtop" scrape -addr 127.0.0.1:16060 >"$obs_tmp/scrape.out" 2>&1; then
		obs_ok=1
		break
	fi
	sleep 0.05
done
[ "$obs_ok" = 1 ] || { echo "check: machtop scrape never succeeded against a live machsim" >&2; \
	cat "$obs_tmp/scrape.out" "$obs_tmp/machsim.log" >&2; kill "$obs_pid" 2>/dev/null; exit 1; }
cat "$obs_tmp/scrape.out"
wait "$obs_pid" || { echo "check: machsim -debug-addr run failed" >&2; cat "$obs_tmp/machsim.log" >&2; exit 1; }
# The final snapshot must diff cleanly against itself (machtop diff exit 0).
"$obs_tmp/machtop" diff "$obs_tmp/snap.json" "$obs_tmp/snap.json" >/dev/null
rm -rf "$obs_tmp"

echo "== distributed smoke (2 device hosts, 2 edges, a cloud: separate machnode processes; -codec raw ≡ -codec delta)"
fed_tmp=$(mktemp -d)
go build -o "$fed_tmp/machnode" ./cmd/machnode
fed_pids=""
trap 'kill $fed_pids 2>/dev/null || true' EXIT
# fed_addr waits for a node's "… on <addr>" line and prints the address.
fed_addr() {
	for _ in $(seq 1 200); do
		a=$(sed -n 's/^machnode: .* on \(127\.0\.0\.1:[0-9]*\)$/\1/p' "$1")
		[ -n "$a" ] && { echo "$a"; return 0; }
		sleep 0.05
	done
	echo "check: machnode never listened: $1" >&2; cat "$1" >&2; return 1
}
for scheme in raw delta; do
	hosts="" edges="" fed_pids=""
	for h in 0 1; do
		"$fed_tmp/machnode" -role device -steps 10 -host-index $h -num-hosts 2 >"$fed_tmp/host$h.log" 2>&1 &
		fed_pids="$fed_pids $!"
	done
	for h in 0 1; do hosts="$hosts${hosts:+,}$(fed_addr "$fed_tmp/host$h.log")"; done
	for n in 0 1; do
		"$fed_tmp/machnode" -role edge -steps 10 -edge-index $n -device-hosts "$hosts" >"$fed_tmp/edge$n.log" 2>&1 &
		fed_pids="$fed_pids $!"
	done
	for n in 0 1; do edges="$edges${edges:+,}$(fed_addr "$fed_tmp/edge$n.log")"; done
	"$fed_tmp/machnode" -role cloud -steps 10 -codec $scheme -edge-addrs "$edges" -device-hosts "$hosts" \
		>"$fed_tmp/$scheme.csv" 2>"$fed_tmp/cloud.log" \
		|| { echo "check: machnode cloud -codec $scheme failed" >&2; cat "$fed_tmp"/*.log >&2; exit 1; }
	kill $fed_pids
	wait $fed_pids 2>/dev/null || true
done
trap - EXIT
[ -s "$fed_tmp/raw.csv" ] && cmp "$fed_tmp/raw.csv" "$fed_tmp/delta.csv" \
	|| { echo "check: machnode -codec raw and -codec delta histories differ" >&2; exit 1; }
echo "   $(($(wc -l <"$fed_tmp/raw.csv") - 1)) evaluations, byte-identical under raw and delta"
rm -rf "$fed_tmp"

echo "check: OK"
