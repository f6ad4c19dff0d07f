#!/usr/bin/env bash
# Local CI gate: formatting, full-workspace clippy, the vecmem-lint
# invariant gate, the tier-1 verification command from ROADMAP.md, every
# workspace crate's own tests, and the benchmark package's smoke tests.
# Run from anywhere inside the repository; exits non-zero on the first
# failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> vecmem-lint: workspace invariant gate (+ its fixture suite)"
# The fixture suite covers the interprocedural rules end-to-end: L6/L7
# call-graph cones, L8 match policy, L9 overflow policy, and the
# findings-v1 schema round-trip.
cargo test -q -p vecmem-lint
# Gate run: emits the machine-readable findings artifact and enforces the
# linter's own runtime budget (the analysis must stay under 2 s so this
# script stays cheap to run on every change).
mkdir -p target/lint
cargo run -q --release -p vecmem-lint -- --workspace \
  --json-out target/lint/findings.json --budget-ms 2000
python3 - <<'EOF' || { echo "findings artifact is not valid findings-v1 JSON"; exit 1; }
import json
doc = json.load(open("target/lint/findings.json"))
assert doc["schema"] == "vecmem-lint/findings-v1", doc["schema"]
assert isinstance(doc["findings"], list) and isinstance(doc["notes"], list)
EOF
echo "    findings artifact: target/lint/findings.json (schema OK)"

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q
# The seeded-fault arbiter variants must keep compiling and passing.
cargo test -q -p vecmem-oracle --features bug_injection
# The SimState sanitizer must catch seeded corruption at the violating
# cycle (debug build: the sanitizer is debug_assertions-only).
cargo test -q -p vecmem-oracle --features bug_injection,sanitize

echo "==> workspace tests: cargo test -q --workspace"
# Tier-1 runs the root package's tests only. The crates' own suites hold
# the SimState hash and packing tests, the pattern walks against their
# from-scratch addresses, and the Brent-vs-reference detector properties.
cargo test -q --workspace

echo "==> perfbench smoke: the benchmark package builds and its pins hold"
# perfbench sits outside the workspace, so neither clippy nor the workspace
# tests compile it; this stage keeps the public API it uses compiling.
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "==> bench smoke: steady-state solver throughput (quick mode)"
VECMEM_BENCH_QUICK=1 cargo bench -q -p vecmem-bench --bench steady_throughput > /dev/null \
  || { echo "steady_throughput bench smoke failed"; exit 1; }
echo "    steady_throughput quick run OK"

echo "==> bench gate: throughput ratchet vs BENCH_history.jsonl"
# Full (non-quick) measurement overwrites the quick smoke's report, then the
# gate compares it against the last recorded non-quick baseline.  A pass
# appends the new measurement (ratcheting the baseline forward); a >10%
# regression exits non-zero without touching the history.  The stride
# conformance batch guards the short-cycle stride path (set-up, keys,
# cache); the gather batch guards the long-period kernel and search.
cargo bench -q -p vecmem-bench --bench steady_throughput > /dev/null
cargo run -q --release -p vecmem-bench --features obs --bin bench_gate \
  || { echo "bench gate: throughput regressed vs BENCH_history.jsonl"; exit 1; }
cargo run -q --release -p vecmem-bench --features obs --bin bench_gate -- \
  --bench steady/gather_batch/serial \
  || { echo "bench gate: gather throughput regressed vs BENCH_history.jsonl"; exit 1; }

echo "==> smoke: figure/table binaries (small geometries, golden diffs)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
for fig in 02 03 04 05 06 07 08 09; do
  ./target/release/"fig$fig" > "$smoke_dir/fig$fig.txt"
  diff -u "results/fig$fig.txt" "$smoke_dir/fig$fig.txt" \
    || { echo "fig$fig drifted from results/fig$fig.txt"; exit 1; }
done
echo "    fig02-fig09 match the golden traces"
./target/release/fig10 3 > "$smoke_dir/fig10.txt"
grep -q "INC" "$smoke_dir/fig10.txt" || { echo "fig10 smoke output empty"; exit 1; }
./target/release/table_theorems 8 2 > "$smoke_dir/theorems.txt" 2> "$smoke_dir/theorems.log"
grep -q " 0 mismatches" "$smoke_dir/theorems.txt" \
  || { echo "table_theorems 8 2 reported mismatches"; cat "$smoke_dir/theorems.txt"; exit 1; }
grep -q "cache hit rate" "$smoke_dir/theorems.log" \
  || { echo "table_theorems did not log its cache hit rate"; exit 1; }
echo "    fig10 + table_theorems smoke OK"
for table in table_skewing table_transient table_priority table_sections table_kernels \
  table_matrix table_multitask table_scaling table_spectrum table_random; do
  ./target/release/"$table" > "$smoke_dir/$table.txt" 2> /dev/null
  diff -u "results/$table.txt" "$smoke_dir/$table.txt" \
    || { echo "$table drifted from results/$table.txt"; exit 1; }
done
./target/release/table_latency 16 > "$smoke_dir/table_latency.txt"
diff -u "results/table_latency.txt" "$smoke_dir/table_latency.txt" \
  || { echo "table_latency 16 drifted from results/table_latency.txt"; exit 1; }
echo "    table_* (skewing .. random, latency 16) match the golden tables"

echo "==> pattern smoke: gather / burst / DRAM steady states (golden diffs)"
./target/release/vecmem steady --pattern gather --affine 16 \
  > "$smoke_dir/steady_gather.txt"
diff -u "results/steady_gather_m16.txt" "$smoke_dir/steady_gather.txt" \
  || { echo "gather steady state drifted from results/steady_gather_m16.txt"; exit 1; }
./target/release/vecmem steady --pattern burst --burst 4 --d1 1 --d2 1 \
  > "$smoke_dir/steady_burst.txt"
diff -u "results/steady_burst_m16.txt" "$smoke_dir/steady_burst.txt" \
  || { echo "burst steady state drifted from results/steady_burst_m16.txt"; exit 1; }
./target/release/vecmem steady --bank-model dram --dram-hit 2 --dram-rows 4 \
  --d1 0 --d2 0 --b2 8 > "$smoke_dir/steady_dram.txt"
diff -u "results/steady_dram_m16.txt" "$smoke_dir/steady_dram.txt" \
  || { echo "DRAM steady state drifted from results/steady_dram_m16.txt"; exit 1; }
echo "    gather + burst + DRAM match the golden steady states"
./target/release/vecmem skew --pattern gather --affine 16 > "$smoke_dir/skew_affine.txt"
diff -u "results/skew_gather_affine16_m16.txt" "$smoke_dir/skew_affine.txt" \
  || { echo "skew affine gather drifted from results/skew_gather_affine16_m16.txt"; exit 1; }
./target/release/vecmem skew --pattern gather > "$smoke_dir/skew_random.txt"
diff -u "results/skew_gather_random_m16.txt" "$smoke_dir/skew_random.txt" \
  || { echo "skew random gather drifted from results/skew_gather_random_m16.txt"; exit 1; }
echo "    skew schemes under affine and pseudo-random gathers match their goldens"

echo "==> report smoke: conflict attribution on the pinned m=16 pair"
./target/release/vecmem report steady --banks 16 --nc 4 --d1 4 --d2 4 \
  > "$smoke_dir/report_steady.txt"
diff -u "results/report_steady_m16.txt" "$smoke_dir/report_steady.txt" \
  || { echo "vecmem report steady drifted from results/report_steady_m16.txt"; exit 1; }
echo "    vecmem report steady matches the golden attribution report"

echo "==> verify: differential oracle + theorem conformance (see TESTING.md)"
./target/release/vecmem verify --exhaustive > "$smoke_dir/verify.txt" \
  || { echo "vecmem verify --exhaustive failed"; cat "$smoke_dir/verify.txt"; exit 1; }
grep -q "divergences 0  violations 0  not converged 0" "$smoke_dir/verify.txt" \
  || { echo "exhaustive sweep not clean"; cat "$smoke_dir/verify.txt"; exit 1; }
./target/release/vecmem verify --random 200 --seed 42 > "$smoke_dir/verify-random.txt" \
  || { echo "vecmem verify --random failed"; cat "$smoke_dir/verify-random.txt"; exit 1; }
grep -q "verdict: CLEAN" "$smoke_dir/verify-random.txt" \
  || { echo "random exploration not clean"; cat "$smoke_dir/verify-random.txt"; exit 1; }
echo "    exhaustive sweep + 200 random cases: zero divergences"

echo "==> OK"
