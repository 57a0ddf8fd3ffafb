#!/usr/bin/env bash
# Regenerate every table and figure of the paper plus the extension
# experiments. Results print to stdout and JSON copies land in
# bench_results/.
#
# Runs every binary in crates/bench/src/bin/ except `perf_smoke` (a
# regression gate over `cargo bench` medians, not an experiment), then
# `generate_report` last so REPORT.md renders from the fresh results.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p teco-bench >/dev/null
for src in crates/bench/src/bin/*.rs; do
  b=$(basename "$src" .rs)
  case "$b" in
    perf_smoke | generate_report) continue ;;
  esac
  cargo run -q --release -p teco-bench --bin "$b"
done
cargo run -q --release -p teco-bench --bin generate_report
echo
echo "All experiments regenerated. JSON results: bench_results/"
