"""ecgres benchmark: preprocess, train and classify as one-caller closed loops.

    python3 perfbench/run.py --workload train --seed 3 --seconds 30 --trace 0

Run from the root of a checkout. The inputs for the seed are generated once
(see prepare.py), cached under .perfbench-cache/ and verified by SHA-256
before every run. The run then sets the workload up (the ecgres import plus
what the workload loads once), runs the workload's op in a closed loop for
--seconds, checks every op's output against the pinned references in
reference.json, and prints the metrics. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of an untraced run. --trace 1
reports per-layer metrics: it spends the first UNTRACED_SHARE of --seconds
untraced (for cpu_per_wall and the tracing overhead), then wraps the
program's callables from outside (tracer.py) and measures the rest traced.

End-to-end times are reported at a reference machine speed (speed.py), with
the wall-clock values in `meta`; per-layer times are wall-clock time as
measured.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import prepare
import tracer as tr
from speed import PERTURBED, SpeedProbe, at_reference_speed
from workloads import WORKLOADS

ROOT = prepare.ROOT
BENCH = Path(__file__).resolve().parent
WORK = prepare.CACHE / "work"
SETUP_EVERY = 2
UNTRACED_SHARE = 0.35
WARMUP_OPS = 1
PROGRAM_MODULES = ["cli", "wfdb_io", "denoise", "segment", "nn", "model", "metrics"]


def import_program() -> dict:
    """Import ecgres afresh, as the `ecgres` console script does."""
    for name in [n for n in sys.modules if n == "ecgres" or n.startswith("ecgres.")]:
        del sys.modules[name]
    importlib.import_module("ecgres.cli")
    mods = {n: sys.modules[f"ecgres.{n}"] for n in PROGRAM_MODULES}
    mods["ecgres"] = sys.modules["ecgres"]
    return mods


def time_setup(workload) -> tuple[float, dict]:
    """Set the workload up from a collected heap, as a fresh process starts:
    a fresh ecgres import plus what the workload loads once."""
    gc.collect()
    t0 = time.perf_counter()
    mods = import_program()
    workload.setup(mods)
    return time.perf_counter() - t0, mods


def tail_index(n: int) -> int:
    """Index of the p90 of n sorted samples, lowered until >= 10 lie beyond
    it, but not below the upper median."""
    return max(n // 2, min(math.ceil(0.9 * n) - 1, n - 11))


def measure(workload, ref, seconds: float, first_op: int, tracer=None,
            after_op=None) -> dict:
    """Closed loop: the next op starts when the previous one has finished.

    The loop runs for `seconds`, but always times at least one op and always
    reaches the workload's last checked op, so no output check is skipped.
    `after_op(i)`, if given, runs after each timed op i has been checked.
    """
    times, beats, failed, i, cpu = [], [], 0, first_op, 0.0
    deadline = time.perf_counter() + seconds
    while (not times or i <= workload.last_checked_op
           or time.perf_counter() < deadline):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                workload.op(i)
            else:
                tracer.run_op(i, workload.op, i)
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            done, _ = workload.check(i, ref)
        except Exception:  # noqa: BLE001 - every failure is counted and reported
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            failed += 1
            print(f"op {i} FAILED:\n{traceback.format_exc()}", file=sys.stderr)
            done = 0
        if i >= WARMUP_OPS:
            times.append(dt)
            cpu += dc
            beats.append(done)
            if after_op is not None:
                after_op(i)
        i += 1
    return {"times": times, "beats": beats, "failed": failed,
            "attempted": i - first_op, "next_op": i, "cpu_per_wall": cpu / sum(times)}


def count_op(workload, ref, tracer, run: dict) -> None:
    """Run one more op, untimed, whose input depends only on the seed
    (index -1), and keep only its counters, so that the work counts repeat
    exactly however many ops the timed phases reached. Its spans are dropped."""
    kept = len(tracer.spans)
    tracer.counts.clear()
    run["attempted"] += 1
    try:
        tracer.run_op(-1, workload.op, -1)
        workload.check(-1, ref)
    except Exception:  # noqa: BLE001 - counted and reported like any failed op
        run["failed"] += 1
        print(f"count op FAILED:\n{traceback.format_exc()}", file=sys.stderr)
    del tracer.spans[kept:]


def latency(times, beats) -> dict:
    """Per-op latency percentiles and the median per-op throughput."""
    ts = sorted(times)
    k = tail_index(len(ts))
    return {"p50_ms": 1e3 * statistics.median(ts), "tail_ms": 1e3 * ts[k],
            "tail_percentile": round(100 * (k + 1) / len(ts), 1), "ops": len(ts),
            "beats_per_s": statistics.median(b / t for b, t in zip(beats, times))}


def blas_info() -> dict:
    """BLAS build and thread settings as found, without changing them."""
    info = {"threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["name"] = "unknown"
    # numpy wheels bundle scipy-openblas; ask the loaded library itself
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol, key, restype in (("get_num_threads", "threads", ctypes.c_int),
                                     ("get_config", "config", ctypes.c_char_p)):
            fn = next((getattr(lib, f"{prefix}_{symbol}{suffix}") for prefix in
                       ("scipy_openblas", "openblas") for suffix in ("64_", "")
                       if hasattr(lib, f"{prefix}_{symbol}{suffix}")), None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                value = fn()
                info[key] = value.decode() if isinstance(value, bytes) else value
    return info


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def traced_metrics(tracer, run: dict, workload_name: str) -> dict:
    """Per-op self times and calls of the traced phase."""
    stats = tracer.self_times_ns()
    ops = len(run["times"])
    metrics = {}

    def self_ms(span):
        return stats.get(span, (0, 0, 0))[1] / 1e6 / ops

    for _, _, span, _ in tr.FUNCTIONS:
        metrics[f"{span}_ms"] = self_ms(span)
    metrics["cli.self_ms"] = metrics.pop("cli_ms")
    for span in ("model.forward_self", "model.backward_self", "nn.adam.step"):
        metrics[f"{span}_ms"] = self_ms(span)
    for layer in tr.NN_LAYERS:
        for way in ("forward", "backward"):
            span = f"nn.{layer}.{way}"
            metrics[f"{span}_ms"] = self_ms(span)
            metrics[f"{span}_calls"] = stats.get(span, (0, 0, 0))[2] / ops
    entry = "cli" if workload_name != "train" else "model.train_self"
    op_total = stats["op"][0]
    below_entry = stats.get(entry, (0, 0, 0))[0] - stats.get(entry, (0, 0, 0))[1]
    metrics["trace.span_coverage"] = below_entry / op_total
    return metrics


COUNTS = (["wfdb_io.samples_decoded", "wfdb_io.beats_selected", "denoise.samples",
           "segment.beats", "segment.boundary_skips"]
          + [f"nn.{layer}.macs" for layer in ("conv1", "conv2", "res_conv1", "res_conv2",
                                              "res_proj", "fc1", "fc2")])


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name in ("cpu_per_wall", "trace.span_coverage", "trace.slowdown"):
        return "ratio"
    return "count"


def time_write_record(synthetic, variant: int) -> float:
    """One fresh synthetic.write_record, as input generation calls it, in ms."""
    out = WORK / "synthetic"
    t0 = time.perf_counter()
    synthetic.write_record(out, "100", duration_s=prepare.DURATION_S, seed=variant * 1000)
    return (time.perf_counter() - t0) * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ecgres benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    variant = args.seed % prepare.VARIANTS
    try:
        prepare.import_ecgres()
        manifest = prepare.ensure(variant)
        pinned = json.loads((BENCH / "reference.json").read_text())[str(variant)]
        for part, digest in pinned["inputs"].items():
            if prepare.inputs_digest(manifest, part) != digest:
                raise prepare.InputError(
                    f"generated {part} inputs differ from those reference.json was "
                    f"pinned for; re-pin with perfbench/pin.py")
    except (prepare.InputError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    WORK.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](prepare.variant_dir(variant), manifest,
                                        args.seed, WORK)
    ref = pinned[args.workload]

    setup_time, mods = time_setup(workload)

    meta = {
        "workload": args.workload, "seed": args.seed, "input_variant": variant,
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(), "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "warmup_ops": WARMUP_OPS,
        "input_generation_s": manifest["generate_s"],
    }

    if args.trace == 0:
        # The machine's speed drifts, so set-up is timed again after every
        # SETUP_EVERY-th op, on a spare instance, and meets the same phases
        # as the ops; the live workload keeps its own modules. The speed
        # probe runs right after every timed op and every set-up.
        probe = SpeedProbe()
        spare = WORKLOADS[args.workload](prepare.variant_dir(variant), manifest,
                                         args.seed, WORK)
        setups, op_probes = [(setup_time, probe.run())], []

        def after_op(i):
            op_probes.append(probe.run())
            if i % SETUP_EVERY == SETUP_EVERY - 1:
                setups.append((time_setup(spare)[0], probe.run()))

        run = measure(workload, ref, args.seconds, 0, after_op=after_op)
        scaled = [at_reference_speed(t, k) for t, k in zip(run["times"], op_probes)]
        lat, raw = latency(scaled, run["beats"]), latency(run["times"], run["beats"])
        metrics = {
            "beats_per_s": lat["beats_per_s"],
            "op_ms_p50": lat["p50_ms"],
            "op_ms_p90": lat["tail_ms"],
            "setup_s": statistics.median(at_reference_speed(t, k) for t, k in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"beats_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        meta["op_ms_p90_percentile"] = lat["tail_percentile"]
        meta["setup_repeats"] = len(setups)
        meta["raw"] = {"beats_per_s": raw["beats_per_s"], "op_ms_p50": raw["p50_ms"],
                       "op_ms_p90": raw["tail_ms"],
                       "setup_s": statistics.median(t for t, _ in setups)}
        probe_op = statistics.median(op_probes)
        probe_setup = statistics.median(k for _, k in setups)
        meta["probe_ms"] = {"after_op": 1e3 * probe_op, "after_setup": 1e3 * probe_setup}
        meta["probe_perturbed"] = abs(probe_op / probe_setup - 1) > PERTURBED
        if meta["probe_perturbed"]:
            print(f"warning: the speed probe took {probe_op / probe_setup:.3f}x as long "
                  f"after ops as after set-ups; the program moved its own scale",
                  file=sys.stderr)
    else:
        # The probe runs after every timed op here too, so that the tracing
        # overhead compares the two phases at the same machine speed.
        probe, probes = SpeedProbe(), {"plain": [], "traced": []}
        plain = measure(workload, ref, args.seconds * UNTRACED_SHARE, 0,
                        after_op=lambda i: probes["plain"].append(probe.run()))
        tracer = tr.Tracer()
        tr.instrument(tracer, mods, [m for m in [getattr(workload, "model", None)] if m])
        tracer.enabled = True
        run = measure(workload, ref, args.seconds * (1 - UNTRACED_SHARE),
                      plain["next_op"], tracer,
                      after_op=lambda i: probes["traced"].append(probe.run()))
        count_op(workload, ref, tracer, run)
        tracer.enabled = False
        for key in ("failed", "attempted"):
            run[key] += plain[key]
        metrics = traced_metrics(tracer, run, args.workload)
        metrics.update({key: tracer.counts.get(key, 0) for key in COUNTS})
        untraced, traced = (
            latency([at_reference_speed(t, k) for t, k in zip(phase["times"], probes[name])],
                    phase["beats"])
            for name, phase in (("plain", plain), ("traced", run)))
        metrics["trace.slowdown"] = traced["p50_ms"] / untraced["p50_ms"]
        metrics["cpu_per_wall"] = plain["cpu_per_wall"]
        metrics["synthetic.write_record_ms"] = time_write_record(
            importlib.import_module("ecgres.synthetic"), variant)
        units = {k: unit_of(k) for k in metrics}
        meta["traced_ops"] = traced["ops"]
        meta["untraced_ops"] = untraced["ops"]
        meta["untraced_op_ms_p50"] = untraced["p50_ms"]
        meta["traced_op_ms_p50"] = traced["p50_ms"]
        meta["trace_overhead_ms"] = traced["p50_ms"] - untraced["p50_ms"]
        tracer.write(WORK / f"spans-{args.workload}.json")

    meta["ops"] = run["attempted"]
    meta["failed_op_ratio"] = run["failed"] / run["attempted"]
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
