"""Pin the reference outputs the benchmark checks every op against.

    python3 perfbench/pin.py

For each input variant this records the digests of the generated raw
database and dataset files, then runs the workloads' ops once with checks
off and keeps what they produced: each record's preprocess `.ecgb` digest
and beat count, the first train op's mean loss and the parameter checksum
after op CHECKSUM_OP, and the classify `metrics.json` digest. Pin only on a
commit whose outputs are known to be right, and say so in the change.
"""
from __future__ import annotations

import json
import sys

import prepare
from run import BENCH, WORK, import_program
from workloads import CHECKSUM_OP, WORKLOADS

PINNED_INPUTS = ("db/", "train.ecgb", "test.ecgb")


def pin_variant(variant: int) -> dict:
    manifest = prepare.ensure(variant)
    out = {"inputs": {part: prepare.inputs_digest(manifest, part) for part in PINNED_INPUTS}}
    mods = import_program()
    ops = {"preprocess": len(manifest["records"]), "train": CHECKSUM_OP + 1, "classify": 1}
    for name, count in ops.items():
        # seed = variant keeps the preprocess record order reproducible; the
        # pins themselves do not depend on it
        workload = WORKLOADS[name](prepare.variant_dir(variant), manifest, variant, WORK)
        workload.setup(mods)
        pins = {}
        for i in range(count):
            workload.op(i)
            pins.update(workload.check(i, None)[1])
        out[name] = pins
    return out


def main() -> int:
    prepare.import_ecgres()
    WORK.mkdir(parents=True, exist_ok=True)
    ref = {}
    for v in range(prepare.VARIANTS):
        ref[str(v)] = pin_variant(v)
        print(f"pinned variant {v}", flush=True)
    (BENCH / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
