#!/usr/bin/env bash
# End-to-end reproduction driver.
#
#   scripts/reproduce_all.sh            # scaled (CI-speed) pass
#   PAGODA_FULL=1 scripts/reproduce_all.sh   # paper-scale (hours)
#   PAGODA_JOBS=8 scripts/reproduce_all.sh   # worker count for the sweep
#
# Produces test_output.txt, sweep_output.txt and scenario_output.txt
# (every paper claim's pass/fail line).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== unit / property / integration tests"
python -m pytest tests/ 2>&1 | tee test_output.txt | tail -2

echo "== every table & figure, fanned across worker processes"
# Each artefact is an independent deterministic sim, so the sweep is
# embarrassingly parallel and produces the same result tables as a
# serial run (repro.bench.parallel's determinism contract).
python -m repro.bench all --parallel "${PAGODA_JOBS:-$(nproc)}" 2>&1 \
    | tee sweep_output.txt | tail -3

echo "== every claim of the paper's evaluation, checked (scenario catalog)"
python -m repro.bench scenarios --check 2>&1 \
    | tee scenario_output.txt | tail -5

echo "== simulator benchmark: every perf/ workload, end to end and by layer"
python3 perf/run.py --seed 0

echo "== examples"
for example in examples/*.py; do
    echo "-- $example"
    python "$example" > /dev/null
done

echo "== calibration drift check (constants should still match Table 3)"
python scripts/calibrate.py --tasks 256

echo "done; see scenario_output.txt and EXPERIMENTS.md"
