"""complim benchmark: one workload per call, closed loop, one run at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout; BENCHMARK.json there names the workloads
and metrics.  Every workload run and every set-up is a fresh child process
(``perfbench/child.py``) with COMPLIM_THREADS, OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS removed from its environment, so it measures the shipped
defaults.  Each run's outputs are checked against ``perfbench/reference.json``.

With ``--trace 0`` the run measures set-up SETUP_REPS times, then repeats the
workload until ``--seconds`` have passed, and reports the median of each
end-to-end metric.  With ``--trace 1``
it alternates traced and untraced workload runs (at least two traced and one
untraced), reports the median of each per-layer metric over the traced runs,
and ``trace.overhead_s``, the traced minus the untraced median wall time.
Counts that follow from the inputs alone must repeat exactly between the
traced runs, or the result is not correct.

Human-readable lines (machine fingerprint, median, quartiles and sample count
of each metric) come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    audit_outputs,
    check,
    config_text,
    sweep_outputs,
)

STRIPPED_ENV = ("COMPLIM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# a run must end within 180 s; no child starts unless it is expected to end by this
BUDGET_S = 165.0
# set-up processes per run; setup_s is their median
SETUP_REPS = 5
# counts that follow from the inputs alone and must repeat exactly between runs
REPEATED_COUNTS = (
    "compressible.steps",
    "compressible.step_flops",
    "compressible.step_bytes",
    "compressible.state_mb",
    "operators.grad_inverse.calls",
    "operators.coupling_matrix.calls",
)


@dataclass
class Proc:
    wall: float  # s, spawn to exit
    cpu: float  # s, user + system of the child
    rss_mb: float  # the child's peak resident set
    code: int


def child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}


def run_child(argv: list[str], env: dict, timeout: float, log: str) -> Proc:
    """Run child.py to completion and return its wall time and resource usage."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, *argv], env=env, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT
        )
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
    )


def _read(path: str, default: str = "") -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return default


def fingerprint(blas: list) -> dict:
    """Machine and library facts that today's numbers depend on."""
    model = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor(),
    )
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    indexes = sorted(os.listdir(base)) if os.path.isdir(base) else []
    for index in (i for i in indexes if i.startswith("index")):
        level = _read(f"{base}/{index}/level").strip()
        kind = _read(f"{base}/{index}/type").strip()
        caches[f"L{level} {kind}"] = _read(f"{base}/{index}/size").strip()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_cpu0": caches,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": blas,
        "stripped_env": {k: os.environ[k] for k in STRIPPED_ENV if k in os.environ},
    }


def describe(values: list[float]) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return f"median {statistics.median(values):.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"


class Run:
    """One benchmark run of one workload: set-ups, workload runs and their checks."""

    def __init__(self, name: str, seed: int, reference: dict | None):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.reference = reference  # None: outputs are kept but not checked
        self.outputs: dict = {}
        self.dir = os.path.join(WORK, f"{name}-seed{seed}-pid{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.out = os.path.join(self.dir, "out")
        self.config = os.path.join(self.dir, "run.cfg")
        with open(self.config, "w") as handle:
            handle.write(config_text(ROOT, self.workload, seed, self.out))
        self.log = os.path.join(self.dir, "child.log")
        self.env = child_env()
        self.deadline = time.perf_counter() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.blas: list = []
        self.span_table: dict = {}  # of the last traced workload run

    def _record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.problems += errors

    def _child(self, argv: list[str]) -> Proc:
        return run_child(argv, self.env, self.deadline - time.perf_counter(), self.log)

    def setup(self) -> float:
        proc = self._child(["setup", "--config", self.config])
        self._record([] if proc.code == 0 else [f"set-up exited with {proc.code}"])
        return proc.wall

    def workload_run(self, traced: bool) -> tuple[Proc, dict]:
        """One workload run; returns its resources and, if traced, its layer metrics."""
        shutil.rmtree(self.out, ignore_errors=True)
        summary_path = os.path.join(self.dir, "summary.json")
        spans_path = os.path.join(self.dir, "spans.json")
        argv = [self.workload.mode, "--config", self.config, "--summary", summary_path]
        proc = self._child(argv + (["--spans", spans_path] if traced else []))
        if proc.code != 0:
            tail = _read(self.log)[-2000:]
            self._record([f"{self.workload.mode} exited with {proc.code}: {tail}"])
            return proc, {}
        try:
            with open(summary_path) as handle:
                summary = json.load(handle)
            if self.workload.mode == "sweep":
                outputs = sweep_outputs(self.out)
            else:
                outputs = audit_outputs(self.out, summary)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            self._record([f"unreadable outputs: {type(exc).__name__}: {exc}"])
            return proc, {}
        self.blas = summary["blas"]
        self.outputs = outputs
        self._record([] if self.reference is None else check(outputs, self.reference, self.seed))
        layers = {}
        if traced:
            spans, observations, missing, main_thread = tracing.load(spans_path)
            if missing:
                print(f"trace: patch points not found: {', '.join(missing)}")
            layers, self.span_table = tracing.layer_metrics(spans, observations, main_thread)
            os.unlink(spans_path)
        return proc, layers

    def time_left_for(self, last: float) -> bool:
        return time.perf_counter() + last < self.deadline

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(run: Run, seconds: float) -> dict[str, list[float]]:
    """End-to-end samples: set-up times, then workload runs for ``seconds``."""
    samples = {"setup_s": [], "wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    for _ in range(SETUP_REPS):
        samples["setup_s"].append(run.setup())
    start = time.perf_counter()
    while True:
        proc, _ = run.workload_run(traced=False)
        samples["wall_s"].append(proc.wall)
        samples["cpu_s"].append(proc.cpu)
        samples["peak_rss_mb"].append(proc.rss_mb)
        if time.perf_counter() - start >= seconds or not run.time_left_for(proc.wall):
            break
    samples["ok_frac"] = [1.0 - run.failed / run.attempted]
    return samples


def measure_layers(run: Run, seconds: float) -> dict[str, list[float]]:
    """Per-layer samples from traced runs, alternating with untraced ones."""
    walls = {True: [], False: []}
    layers: list[dict] = []
    start = time.perf_counter()
    for traced in itertools.chain([True, False, True], itertools.cycle([False, True])):
        enough = len(walls[True]) >= 2 and len(walls[False]) >= 1
        if enough and time.perf_counter() - start >= seconds:
            break
        if not run.time_left_for(max(walls[True] + walls[False], default=0.0)):
            break
        proc, metrics = run.workload_run(traced)
        walls[traced].append(proc.wall)
        if metrics:
            layers.append(metrics)
    samples = {name: [m[name] for m in layers] for name in (layers[0] if layers else {})}
    for name in REPEATED_COUNTS:
        if len(set(samples.get(name, []))) > 1:
            run.problems.append(f"{name} differs between traced runs: {samples[name]}")
    if walls[True] and walls[False]:
        samples["trace.overhead_s"] = [
            statistics.median(walls[True]) - statistics.median(walls[False])
        ]
    return samples


def load_reference(name: str) -> dict:
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)[name]


def run_one(manifest: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(name, seed, load_reference(name))
    try:
        samples = measure_layers(run, seconds) if trace else measure(run, seconds)
    finally:
        run.close()
    wanted = manifest["per_layer" if trace else "end_to_end"]
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    print("fingerprint " + json.dumps(fingerprint(run.blas), sort_keys=True))
    metrics = {}
    for spec in wanted:
        values = samples.get(spec["name"])
        if not values:
            run.problems.append(f"metric {spec['name']} was not measured")
            continue
        print(f"  {spec['name']:<38} {spec['unit']:<8} {describe(values)}")
        metrics[spec["name"]] = {"value": statistics.median(values), "unit": spec["unit"]}
    if trace:
        print(f"  {'span':<38} {'calls':>8} {'total_s':>10} {'self_s':>10}  (last traced run)")
        for span, row in sorted(run.span_table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {span:<38} {row['calls']:>8} {row['s']:>10.4f} {row['self_s']:>10.4f}")
    else:
        print(f"  fail_frac {run.failed / run.attempted:.6g}  ({run.failed} of {run.attempted} runs failed)")
    for problem in run.problems:
        print(f"  problem: {problem}")
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    # a terminated run unwinds through run_child, which stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="complim benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=1312)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")

    manifest_path = os.path.join(ROOT, "BENCHMARK.json")
    needed = [manifest_path, os.path.join(ROOT, "src", "complim", "__init__.py")]
    needed += [os.path.join(ROOT, w.base_config) for w in WORKLOADS.values()]
    absent = [path for path in needed if not os.path.isfile(path)]
    if absent:
        print(f"perfbench: not a complim checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    seconds = args.seconds if args.seconds is not None else manifest["run_seconds"]

    if not args.all:
        result = run_one(manifest, args.workload, args.seed, seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    results = {
        f"{name}/trace{trace}": run_one(manifest, name, args.seed, seconds, bool(trace))
        for name in WORKLOADS
        for trace in (0, 1)
    }
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
