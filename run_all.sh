#!/bin/bash
# Runs the CI gate and every test, regenerates results/ from the figure
# binaries at their default budgets, then runs the campaign and the
# benches. Each results/<bin>.txt holds only that bin's stdout, so a
# regeneration on an unchanged tree leaves `git diff results/` empty.
# Usage: ./run_all.sh
set -x
cd "$(dirname "$0")"
mkdir -p results
./ci.sh 2>&1 | tee ci_output.txt
cargo test --workspace 2>&1 | tee test_output.txt
for bin in fig01_emulation_error fig02_jamming_effect fig09_time_consumption mdp_threshold_analysis fig10_goodput_utilization fig11_scheme_comparison ablation_design_choices adaptive_jammer; do
  cargo run --release -q -p ctjam-bench --bin $bin > results/$bin.txt
done
CTJAM_CSV_DIR=results/csv cargo run --release -q -p ctjam-bench --bin fig06_07_08_sweeps > results/fig06_07_08_sweeps.txt
cargo run --release -p ctjam-bench --bin campaign -- --out results/campaign > results/campaign.txt 2>&1
cargo bench --workspace 2>&1 | tee bench_output.txt
echo ALL_DONE
