"""Benchmark of the spinboost CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload packet|detect|sweep --seed N \
        --seconds T --trace 0|1

Run it from the root of a spinboost checkout; it uses the code under
``src/`` and writes only under ``.perfbench_out/``. Steps:

1. Set-up: time fresh interpreters that import ``spinboost.cli``, half
   before the load and half after it, each followed by a timing of the
   reference computation (workloads.py), and report the median at the
   reference's nominal speed (``--trace 0``); or split that import into
   numpy and spinboost with ``python -X importtime`` (``--trace 1``).
2. Load: one worker process (worker.py) runs a closed loop with one client
   for T seconds, calling ``spinboost.cli.main`` in-process on fresh seeded
   inputs per operation (workloads.py). Between operations it times the
   reference computation; operation times are reported at the reference's
   nominal speed, so that the drifting speed of a shared machine cancels
   out.
3. Checks: every operation's outputs are compared with closed forms and
   brute-force sums (checker.py); a non-zero exit, an uncaught exception or
   a wrong answer makes the operation failed. A self-test shows that the
   checker passes known-good outputs and fails known-bad ones. With
   ``--trace 1`` the untimed whole-domain ``ratio`` operations of the
   worker's audit are checked the same way and reported as shares.

It prints one line with the environment record, then, as the last line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Every operation's outputs are checked. ``correct`` is true
when the checker's self-test passed and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checker import check_op
from selftest import run_selftest
from worker import LAYERS, self_times
from workloads import BUILDERS, REFERENCE_NOMINAL_S, reference_seconds

#: Fresh interpreters timed per run for set-up, half before the load and
#: half after it, so that the median spans the run; the median is reported.
SETUP_REPEATS = 16
#: Longest a worker may run beyond its timed loop (probe, last operation).
WORKER_GRACE_S = 90


def _child_env(root: Path) -> dict:
    """Environment of every process started: the checkout's sources first on
    the path, and no bytecode caches written, so that nothing is written to
    ``src/`` or outside the checkout."""
    env = dict(os.environ)
    parts = [str(root / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in parts if p)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def setup_samples(env: dict, repeats: int) -> list[tuple[float, float]]:
    """(wall time, scaled time) of fresh interpreters importing spinboost.cli.

    Each wall time is scaled to the reference's nominal speed by the mean of
    the reference timings just before and just after it.
    """
    command = [sys.executable, "-c", "import spinboost.cli"]
    samples = []
    before = reference_seconds()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(command, env=env, check=True)
        wall = time.perf_counter() - start
        after = reference_seconds()
        samples.append((wall, wall * REFERENCE_NOMINAL_S / (0.5 * (before + after))))
        before = after
    return samples


def split_samples(env: dict, repeats: int) -> list[tuple[float, float]]:
    """(numpy, spinboost) import seconds of fresh interpreters, read from
    ``python -X importtime``; numpy is imported first so that the spinboost
    figure excludes it."""
    command = [sys.executable, "-X", "importtime", "-c", "import numpy, spinboost.cli"]
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(command, env=env, check=True, capture_output=True, text=True)
        numpy_us = spinboost_us = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2]
            if name.startswith("  "):  # imported by another module
                continue
            name = name.strip()
            if name == "numpy":
                numpy_us += int(fields[1])
            elif name == "spinboost" or name.startswith("spinboost."):
                spinboost_us += int(fields[1])
        samples.append((numpy_us * 1e-6, spinboost_us * 1e-6))
    return samples


def scale_ops(ops: list[dict], references: list[float]) -> None:
    """Give each operation its wall time at the reference's nominal speed:
    the wall time times nominal over the mean of the reference timings just
    before and just after the operation."""
    for op in ops:
        i = op["reference_index"]
        op["reference_s"] = 0.5 * (references[i] + references[i + 1])
        op["scaled_s"] = op["seconds"] * REFERENCE_NOMINAL_S / op["reference_s"]


def end_to_end(result: dict, setup_s: float) -> dict:
    ops = result["ops"]
    scaled = [op["scaled_s"] for op in ops]
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(scaled), "s"),
        "ops_per_s": (len(ops) / math.fsum(scaled), "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(result: dict, audit: dict, split: list[tuple[float, float]]) -> dict:
    ops = result["ops"]
    traced = [op["scaled_s"] for op in ops if op["traced"]]
    plain_ops = [op for op in ops if not op["traced"]]
    plain = [op["scaled_s"] for op in plain_ops]
    per_op = 1.0 / max(len(traced), 1)
    totals: dict[str, list[float]] = {}
    for span, own in zip(result["spans"], self_times(result["spans"])):
        entry = totals.setdefault(span[0], [0, 0.0])
        entry[0] += 1
        entry[1] += own
    metrics = {}
    for module, names in LAYERS.items():
        for name in names:
            calls, own = totals.get(f"{module}.{name}", (0, 0.0))
            metrics[f"{module}.{name}.calls"] = (calls * per_op, "count")
            metrics[f"{module}.{name}.self_s"] = (own * per_op, "s")
    for layer, probe in result["probe"].items():
        metrics[f"{layer}.size_exp"] = (probe["size_exp"], "slope")
    metrics["cli.self_s"] = (totals.get("cli", (0, 0.0))[1] * per_op, "s")
    metrics["cli.bytes_written"] = (
        statistics.mean(op["bytes_written"] for op in ops),
        "bytes",
    )
    audited = result["audit"]
    metrics["audit.failed_frac"] = (audit["failed"] / len(audited), "frac")
    metrics["audit.mismatch_frac"] = (audit["mismatch"] / len(audited), "frac")
    for code in (2, 3):
        share = sum(code in op["codes"] for op in audited) / len(audited)
        metrics[f"audit.exit{code}_frac"] = (share, "frac")
    share = sum(op["error"] is not None for op in audited) / len(audited)
    metrics["audit.exception_frac"] = (share, "frac")
    # operation 0 is never traced, so ``plain`` is not empty
    if len(plain) > 1:
        p99 = statistics.quantiles(plain, n=100, method="inclusive")[98]
    else:
        p99 = plain[0]
    metrics["op_s_p99"] = (p99, "s")
    metrics["op_wall_s_p50"] = (statistics.median(op["seconds"] for op in plain_ops), "s")
    metrics["reference_s_p50"] = (statistics.median(result["reference_s"]), "s")
    metrics["setup.numpy_s"] = (statistics.median(n for n, _ in split), "s")
    metrics["setup.spinboost_s"] = (statistics.median(s for _, s in split), "s")
    overhead = (
        statistics.median(traced) / statistics.median(plain) - 1.0 if traced else float("nan")
    )
    metrics["trace.overhead_frac"] = (overhead, "frac")
    return metrics


def check_all(workload: str, ops: list[dict], ops_dir: Path) -> dict:
    """Classify every operation: exit failure, wrong answer, or passed."""
    outcome = {"failed": 0, "mismatch": 0, "examples": []}
    for index, op in enumerate(ops):
        if op["error"] is not None or any(code != 0 for code in op["codes"]):
            problems = [f"exit codes {op['codes']}, error {op['error']}"]
        else:
            problems = check_op(workload, op["params"], ops_dir / f"{index:06d}")
            outcome["mismatch"] += bool(problems)
        if problems:
            outcome["failed"] += 1
            if len(outcome["examples"]) < 5:
                outcome["examples"].append({"op": index, "params": op["params"],
                                            "problems": problems})
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "spinboost" / "cli.py").is_file():
        print(f"no spinboost sources under {root / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    env = _child_env(root)
    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    sample_setup = split_samples if args.trace else setup_samples
    # an untimed first import brings the files into the page cache
    subprocess.run([sys.executable, "-c", "import spinboost.cli"], env=env, check=True)
    reference_seconds()  # untimed: its first run in a process is slower
    setup = sample_setup(env, SETUP_REPEATS // 2)

    with open(out / "worker.stderr", "w") as stderr:
        subprocess.run(
            [
                sys.executable, str(Path(__file__).with_name("worker.py")),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(out),
            ],
            env=env, stdout=subprocess.DEVNULL, stderr=stderr, check=True,
            timeout=args.seconds + WORKER_GRACE_S,
        )
    with open(out / "worker.json") as handle:
        result = json.load(handle)
    with open(out / "ops.jsonl") as handle:
        result["ops"] = [json.loads(line) for line in handle]
    scale_ops(result["ops"], result["reference_s"])
    setup += sample_setup(env, SETUP_REPEATS - SETUP_REPEATS // 2)

    outcome = check_all(args.workload, result["ops"], out / "ops")
    selftest = run_selftest(env, out / "selftest")
    if args.trace:
        # audit operations are all ``ratio``, the scenario of ``sweep``
        audit = check_all("sweep", result["audit"], out / "audit")
        metrics = per_layer(result, audit, setup)
    else:
        setup_s = statistics.median(scaled for _, scaled in setup)
        metrics = end_to_end(result, setup_s)

    record = {
        "workload": args.workload,
        "environment": result["environment"],
        "samples": len(result["ops"]),
        "op_wall_s_p50": statistics.median(op["seconds"] for op in result["ops"]),
        "reference_s_p50": statistics.median(result["reference_s"]),
        "selftest": selftest,
        "failed_examples": outcome["examples"],
    }
    if args.trace:
        record["probe"] = result["probe"]
        record["audit_failed_examples"] = audit["examples"]
        shutil.rmtree(out / "audit")
    else:
        record["setup_wall_s_p50"] = statistics.median(wall for wall, _ in setup)
    with open(out / "record.json", "w") as handle:
        json.dump(record, handle, indent=2)
    shutil.rmtree(out / "ops")
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            print(f"metric {name} has no finite value; reported as 0", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": all(selftest.values()) and outcome["failed"] == 0,
        "attempted": len(result["ops"]),
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
