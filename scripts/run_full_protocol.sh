#!/bin/sh
# Full experimental protocol on the real database: 13200 beats per set,
# 300 epochs of Adam at lr 0.001, batch 32 (the protocol `ecgres train` always
# runs). Training takes about 3 1/2 minutes on a 2-core Xeon (13,200 x 300
# beats at the ~18,530-18,880 beats/s that `perfbench/run.py --workload train`
# measures there, BENCH_32.json quartiles).
#
#   MITDB_DIR=/path/to/mitdb ./scripts/run_full_protocol.sh [output_dir]
set -eu

: "${MITDB_DIR:?set MITDB_DIR to the directory holding the .hea/.dat/.atr files}"
OUT="${1:-runs/full}"

ecgres preprocess --data-dir "$MITDB_DIR" --output-dir "$OUT" \
    --seed 0 --per-set-size 13200
ecgres train --output-dir "$OUT" --seed 0 --epochs 300
ecgres evaluate --checkpoint "$OUT/checkpoint.ecgm" \
    --dataset "$OUT/test.ecgb" --output-dir "$OUT/metrics"
cat "$OUT/metrics/metrics.json"
