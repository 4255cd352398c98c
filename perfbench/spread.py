"""Steadiness evidence: run the benchmark over several seeds and report spreads.

    python3 perfbench/spread.py --seeds 1-10 --label set1
    python3 perfbench/spread.py --seeds 1-10 --label set2 --compare set1

Runs `run.py --trace 0` once per seed and workload, interleaving workloads so
that each workload's runs meet different phases of a machine whose speed
drifts. For every workload and end-to-end metric it reports the median, the
quartiles (`statistics.quantiles(n=4)`) and the quartile distance over the
median, against the metric's bound in BENCHMARK.json. A spread above the
bound is flagged UNRESOLVED, one above a third of it `wide`. With
--compare it also reports how far this set's median moved from the other
set's. Results go to perfbench/spread/<label>.json and a table to stdout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RAW = ("beats_per_s", "op_ms_p50", "op_ms_p90", "setup_s")
PROBE_RATIO = "probe after_op/after_setup"


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: failed ops\n{proc.stderr}")
    meta = json.loads(lines[-2].removeprefix("meta "))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values.update({f"raw {k}": v for k, v in meta["raw"].items()})
    values[PROBE_RATIO] = meta["probe_ms"]["after_op"] / meta["probe_ms"]["after_setup"]
    return values


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med
    flag = "UNRESOLVED" if spread > bound else ("wide" if spread > bound / 3 else "ok")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "flag": flag, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--label", required=True)
    ap.add_argument("--compare", help="label of an earlier set to compare medians with")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            runs[w].append(run_once(w, seed, spec["run_seconds"]))
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v:.5g}" for k, v in runs[w][-1].items()),
                  flush=True)

    other = None
    if args.compare:
        other = json.loads((BENCH / "spread" / f"{args.compare}.json").read_text())["summary"]
    summary = {}
    print(f"\n| workload | metric | median | q1 | q3 | spread | bound | flag |"
          f"{' moved |' if other else ''}")
    print(f"|---|---|---|---|---|---|---|---|{'---|' if other else ''}")
    rows = {**bounds, **{f"raw {k}": bounds[k] for k in RAW}}
    for w in workloads:
        summary[w] = {}
        for name, bound in rows.items():
            s = summarize([r[name] for r in runs[w]], bound)
            row = f"| {w} | {name} | {s['median']:.5g} | {s['q1']:.5g} | {s['q3']:.5g} | " \
                  f"{s['spread']:.3f} | {bound} | {s['flag']} |"
            if other and name in other[w]:
                before = other[w][name]["median"]
                sign = 1 if better[name.removeprefix("raw ")] == "lower" else -1
                worse = (s["median"] - before) / before * sign
                s["moved_worse"] = worse
                row += f" {worse:+.3f}{' OVER BOUND' if worse > bound else ''} |"
            summary[w][name] = s
            print(row)
    print("\nlargest |probe after ops / probe after set-ups - 1| per workload: " + ", ".join(
        f"{w} {max(abs(r[PROBE_RATIO] - 1) for r in runs[w]):.3f}" for w in workloads))
    for w in workloads:
        summary[w][PROBE_RATIO] = [r[PROBE_RATIO] for r in runs[w]]
    out = BENCH / "spread" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "run_seconds": spec["run_seconds"],
                               "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
