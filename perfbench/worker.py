"""Closed-loop load for one benchmark run: a single client that calls
``spinboost.cli.main(argv)`` in-process, one operation after the other,
each into a fresh output directory.

    PYTHONPATH=src python3 perfbench/worker.py --workload W --seed N \
        --seconds T --trace 0|1 --out DIR

It writes one record per operation to ``DIR/ops.jsonl`` (parameters, exit
codes, wall time, which reference timing came before it, whether it was
traced, bytes written) and the environment, the process's peak RSS and the
reference timings to ``DIR/worker.json``. With ``--trace 1`` every other operation runs with the
library's public functions wrapped, the spans of those operations are
written too, a size probe times the two dense layers at two grid sizes,
and ``AUDIT_OPS`` untimed ``ratio`` operations from the whole domain are run
for run.py to check.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from workloads import BUILDERS, EvenInputs, audit_op, reference_seconds

#: Operation time, in seconds, after which the reference computation is
#: timed again; run.py scales each operation by the timings around it.
REFERENCE_EVERY_S = 0.25

#: Functions wrapped in traced operations, by module. ``kinematics`` and
#: ``spin`` calls take less time than a wrapper costs and are left out;
#: their time lands in the self time of their callers.
LAYERS = {
    "wavefunction": ("synthesize_gaussian", "synthesize_discrete", "density"),
    "detection": (
        "detection_curve",
        "detection_ratio",
        "detection_probability",
        "signaling_discriminator",
        "ratio_report",
    ),
    "states": ("collapse", "center_interference_minimum"),
    "boost": ("transform",),
}

#: (argument vector, grid size) per probe size of each layer; each size is
#: run once untimed and then ``PROBE_REPEATS`` times traced, the sizes taking
#: turns, and the least of the layer's median self time per call over the
#: traced runs is kept, so that a slow phase of the machine during one run
#: does not bend the slope.
PROBE_REPEATS = 2
PROBES = {
    "wavefunction.synthesize_gaussian": [
        (["figure2", "--grid-points", str(n), "--p-grid-points", str(n)], n)
        for n in (2048, 4096)
    ],
    "detection.detection_curve": [
        (["signaling", "--grid-points", str(n)], n) for n in (2049, 4097)
    ],
}


#: Untimed ``ratio`` operations from the whole CLI-valid domain per traced
#: run (see ``workloads.audit_op``).
AUDIT_OPS = 256


class Tracer:
    """Records spans (name, start, end, parent span index, op id) in memory.

    ``install`` swaps every binding of each wrapped function, in every
    ``spinboost`` module namespace that holds it, for a recording wrapper;
    ``uninstall`` puts the originals back.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        namespaces = [
            module
            for name, module in list(sys.modules.items())
            if name == "spinboost" or name.startswith("spinboost.")
        ]
        for module_name, names in LAYERS.items():
            module = importlib.import_module(f"spinboost.{module_name}")
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    continue
                wrapped = self._wrap(f"{module_name}.{name}", original)
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original, wrapped))

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.op_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        for namespace, attr, _, wrapped in self._patches:
            setattr(namespace, attr, wrapped)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)


def peak_rss_kb() -> int:
    """Peak resident set size of this process's own address space, in KiB.

    ``ru_maxrss`` is only the fallback: after exec it also holds the
    parent's high-water mark, so the harness's memory would set a floor
    under the figure.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def run_op(cli, runs: list[list[str]], op_dir: Path, tracer: Tracer | None):
    """Run one operation's CLI calls; return exit codes and the first error."""
    codes, error = [], None
    for argv in runs:
        full = [*argv, "--out", str(op_dir)]
        try:
            if tracer is None:
                code = cli.main(full)
            else:
                code = tracer.call("cli", cli.main, full)
        except SystemExit as exc:  # argparse refuses an argument
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an uncaught error is a failed operation
            code, error = 1, error or f"{type(exc).__name__}: {exc}"
        codes.append(code)
    return codes, error


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    threads = {
        var: os.environ.get(var, "unset")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "seed": seed,
    }


def size_probe(cli, out: Path) -> dict:
    """Log-log slope of per-call self time against grid size per layer."""
    result = {}
    for layer, cases in PROBES.items():
        # the first runs at a size in a process are slower; keep them out
        for argv, n in cases:
            run_op(cli, [argv], out / f"warmup-{n}", None)
        best = {n: float("inf") for _, n in cases}
        for _ in range(PROBE_REPEATS):
            for argv, n in cases:
                tracer = Tracer()
                tracer.install()
                try:
                    run_op(cli, [argv], out / f"probe-{n}", tracer)
                finally:
                    tracer.uninstall()
                own = self_times(tracer.spans)
                calls = [t for span, t in zip(tracer.spans, own) if span[0] == layer]
                if calls:
                    best[n] = min(best[n], statistics.median(calls))
        (n1, t1), (n2, t2) = best.items()
        result[layer] = {
            "sizes": [n1, n2],
            "self_s_per_call": [t1, t2],
            "size_exp": math.log(t2 / t1) / math.log(n2 / n1),
        }
    return result


def audit(cli, seed: int, out: Path) -> list[dict]:
    """Parameters, exit codes and error of ``AUDIT_OPS`` untimed whole-domain
    ``ratio`` operations, each written to its own directory under ``out``."""
    inputs = EvenInputs(seed)
    records = []
    for index in range(AUDIT_OPS):
        params, runs = audit_op(inputs.next())
        codes, error = run_op(cli, runs, out / f"{index:06d}", None)
        records.append({"params": params, "codes": codes, "error": error})
    return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    from spinboost import cli

    build = BUILDERS[args.workload]
    inputs = EvenInputs(args.seed)
    tracer = Tracer() if args.trace else None

    # one untimed operation lets lazy set-up inside the process finish
    _, warm_runs = build(inputs.next())
    run_op(cli, warm_runs, args.out / "warmup", None)

    reference_seconds()  # untimed: its first run in a process is slower
    references = [reference_seconds()]
    count = 0
    since = 0.0
    deadline = time.perf_counter() + args.seconds
    # records go straight to disk so that the harness's memory does not grow
    # with the number of operations and show up in the peak RSS
    with open(args.out / "ops.jsonl", "w") as records:
        while count == 0 or time.perf_counter() < deadline:
            params, runs = build(inputs.next())
            op_dir = args.out / "ops" / f"{count:06d}"
            op_dir.mkdir(parents=True)
            traced = tracer is not None and count % 2 == 1
            if traced:
                tracer.op_id = count
                tracer.install()
            t0 = time.perf_counter()
            codes, error = run_op(cli, runs, op_dir, tracer if traced else None)
            seconds = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            record = {
                "params": params,
                "codes": codes,
                "error": error,
                "seconds": seconds,
                # the reference timing just before this operation; the
                # next one is just after it
                "reference_index": len(references) - 1,
                "traced": traced,
                "bytes_written": sum(f.stat().st_size for f in op_dir.iterdir()),
            }
            records.write(json.dumps(record) + "\n")
            count += 1
            since += seconds
            if since >= REFERENCE_EVERY_S:
                references.append(reference_seconds())
                since = 0.0
        if since:
            references.append(reference_seconds())

    result = {
        "environment": environment(args.seed),
        "peak_rss_kb": peak_rss_kb(),
        "reference_s": references,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["probe"] = size_probe(cli, args.out / "probe")
        result["audit"] = audit(cli, args.seed, args.out / "audit")
    with open(args.out / "worker.json", "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
