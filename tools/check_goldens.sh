#!/usr/bin/env bash
# Diffs every deterministic bench output against its file in
# bench/golden/ and exits non-zero if any differs or any bench fails.
#
# Usage:
#   tools/check_goldens.sh [BUILD_DIR]    # default BUILD_DIR: build
#   tools/check_goldens.sh --targets      # print the bench targets
#
# Build the benches first:
#   cmake --build build --target $(tools/check_goldens.sh --targets)
#
# Every bench here runs on a VirtualClock or in closed form, and none
# reads TARPIT_BENCH_TINY, so its whole output is the golden. The one
# exception is bench_ablation_reputation: it runs tiny, and its
# open-loop line is measured on the real clock, so that line is dropped.
set -uo pipefail

plain=(
  bench_table1_synthetic_scale
  bench_table2_cap_scaling
  bench_table3_calgary_decay
  bench_table4_boxoffice_decay
  bench_fig1_calgary_distribution
  bench_fig2_boxoffice_annual
  bench_fig3_boxoffice_week1
  bench_fig456_update_skew
  bench_analysis_asymptotics
  bench_ablation_access_vs_update
  bench_ablation_beta_sweep
  bench_ablation_combined_policy
  bench_ablation_defense_layers
)

if [[ "${1:-}" == "--targets" ]]; then
  echo "${plain[@]}" bench_ablation_reputation
  exit 0
fi

root="$(cd "$(dirname "$0")/.." && pwd)"
bench="${1:-build}/bench"
golden="$root/bench/golden"
failed=0

for b in "${plain[@]}"; do
  if "$bench/$b" | diff "$golden/$b.txt" -; then
    echo "ok   $b"
  else
    echo "FAIL $b (output differs from bench/golden/$b.txt, or the bench failed)"
    failed=1
  fi
done

b=bench_ablation_reputation
if TARPIT_BENCH_TINY=1 "$bench/$b" | grep -v '^open-loop' \
    | diff "$golden/$b.tiny.txt" -; then
  echo "ok   $b (tiny)"
else
  echo "FAIL $b (output differs from bench/golden/$b.tiny.txt, or the bench failed)"
  failed=1
fi

exit "$failed"
