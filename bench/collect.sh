#!/usr/bin/env bash
# Collects one run set: every workload once per seed, untraced, appended to
# the JSON file named first. Usage: bench/collect.sh out.json [seed...]
set -euo pipefail
out=$1
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5 6 7 8 9 10)
for seed in "${seeds[@]}"; do
  for w in linear_heavy paf_heavy session_churn shared_budget; do
    bash "$(dirname "$0")/run.sh" --workload "$w" --seed "$seed" --trace 0 --append "$out" >/dev/null
  done
done
