"""Benchmark of the toric-deform CLI on three closed-loop workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload h1-sweep --seed 1 --seconds 30 --trace 0

Each workload is a list of operations, almost all of them
``toric_deform.cli.main(argv)`` calls made in this process, one after the
other (a closed loop with one client and no extra threads). After an
unmeasured warm-up pass, passes repeat until ``--seconds`` have gone by.
Every output is checked against values pinned in ``expected.json``.

``--trace 0`` prints the end-to-end metrics: median pass time (wall_s),
per-command latency (cmd_p50_ms, cmd_p90_ms), set-up time of a fresh CLI
process plus writing the fan files (setup_s), peak memory (peak_rss_mb)
and the share of operations whose output was right (ok_ratio).
``--trace 1`` alternates untraced and traced passes, and prints per-layer
calls, self times and counters per traced pass, plus the tracing overhead
(median traced minus median untraced pass time). The spans go to
``.bench_out/spans-<workload>.csv``.

The last line of standard output is the result object; the line before it
records the environment (Python, numpy, nproc, numba) and sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 3  # before the passes; one more follows each measured pass
# cmd_p90_ms needs at least ten samples above it
MIN_COMMANDS = 100
# one process, one thread: keep numpy's BLAS pool from starting threads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    from toric_deform import kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "have_numba": bool(kernels._HAVE_NUMBA),
    }


class Setup:
    """Samples of set-up: a fresh ``import toric_deform.cli`` plus writing the fans.

    The child gets the caller's environment, as a real CLI process would.
    Samples are taken before the passes and between them, so that the
    median covers the machine's drift over the whole run.
    """

    def __init__(self, keys, work: str, env: dict):
        self.keys = keys
        self.work = work
        self.env = dict(env)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, self.env.get("PYTHONPATH")) if p)
        self.cmd = [sys.executable, "-c", "import toric_deform.cli"]
        self.imports: list[float] = []
        self.writes: list[float] = []
        subprocess.run(self.cmd, env=self.env, check=True, timeout=60)  # writes bytecode caches

    def sample(self) -> dict[str, str]:
        """Time one set-up; returns the paths of the fan files it wrote."""
        t0 = perf_counter()
        subprocess.run(self.cmd, env=self.env, check=True, timeout=60)
        self.imports.append(perf_counter() - t0)
        directory = os.path.join(self.work, f"fans{len(self.writes)}")
        os.mkdir(directory)
        t0 = perf_counter()
        paths = workloads.write_fans(self.keys, directory)
        self.writes.append(perf_counter() - t0)
        return paths

    def seconds(self) -> float:
        return statistics.median(self.imports) + statistics.median(self.writes)


class Runner:
    """Runs passes of one workload and keeps their timings and failures."""

    def __init__(self, ops):
        from toric_deform import cli, hypersurf

        self.ops = ops
        self.cli = cli
        self.hypersurf = hypersurf
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                if self.tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = self.tracer.call_main(self.cli.main, argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
            dt = perf_counter() - t0
        return rc, out.getvalue(), err.getvalue(), dt

    def run_pass(self):
        """One pass; returns (pass seconds, per-command seconds)."""
        ctx: dict = {}
        total = 0.0
        latencies = []
        gc.collect()
        for op in self.ops:
            self.attempted += 1
            try:
                if op.kind == "rr":
                    t0 = perf_counter()
                    points = self.hypersurf.riemann_roch_points(*op.args)
                    dt = perf_counter() - t0
                    error = op.check(points, ctx)
                else:
                    argv = op.argv(ctx) if callable(op.argv) else op.argv
                    rc, out, err, dt = self._cli(argv)
                    latencies.append(dt)
                    error = op.check(rc, out, err, ctx)
                    if error and err:
                        error += f"; stderr: {err.strip()[:200]}"
                total += dt
            except Exception as exc:  # a crash counts as a failed operation
                error = f"{type(exc).__name__}: {exc}"
            if error:
                self.failures.append(error)
        return total, latencies

    def run_for(self, seconds: float, min_commands: int, after_pass):
        """Passes until ``seconds`` have gone by and ``min_commands`` ran.

        ``after_pass()`` runs between passes, outside their timing.
        """
        walls, latencies = [], []
        end = perf_counter() + seconds
        while True:
            wall, lat = self.run_pass()
            walls.append(wall)
            latencies.extend(lat)
            after_pass()
            if perf_counter() >= end and len(latencies) >= min_commands:
                return walls, latencies

    def run_traced(self, seconds: float, tracer: Tracer):
        """Untraced and traced passes in turn until ``seconds`` have gone by.

        Alternating lets drift in machine speed hit both sides of the
        tracing overhead alike. Returns (untraced, traced) pass seconds.
        """
        walls, traced = [], []
        end = perf_counter() + seconds
        while True:
            walls.append(self.run_pass()[0])
            tracer.install()
            self.tracer = tracer
            try:
                traced.append(self.run_pass()[0])
            finally:
                tracer.uninstall()
                self.tracer = None
            if perf_counter() >= end:
                return walls, traced


def end_to_end(walls, latencies, setup_s, runner) -> dict:
    ms = [x * 1000.0 for x in latencies]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cmd_p50_ms": (statistics.median(ms), "ms"),
        "cmd_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": (1.0 - len(runner.failures) / runner.attempted, "ratio"),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, passes: int, overhead_s: float) -> dict:
    out = {}
    spans = tracer.per_name()
    for name, (calls, self_s) in spans.items():
        out[f"{name}.calls"] = (calls / passes, "count")
        out[f"{name}.self_s"] = (self_s / passes, "s")
    c = tracer.counters
    out["triples.degree_box.degrees"] = (c["triples.degree_box.degrees"] / passes, "count")
    out["triples.useful_ratio"] = (
        _ratio(c["triples.useful_degrees"], c["triples.degree_box.degrees"]), "ratio")
    out["cohomology.cech.max_c1_dim"] = (c["cohomology.cech.max_c1_dim"], "count")
    out["cohomology.useful_ratio"] = (
        _ratio(c["cohomology.h1_positive"], spans["cohomology.cech"][0]), "ratio")
    out["kernels.matrix_rank.entries"] = (c["kernels.matrix_rank.entries"] / passes, "count")
    out["kernels.matrix_rank.max_entries"] = (c["kernels.matrix_rank.max_entries"], "count")
    out["hypersurf.riemann_roch_points.points"] = (
        c["hypersurf.riemann_roch_points.points"] / passes, "count")
    out["hypersurf.lift_polynomial.liftable_ratio"] = (
        _ratio(c["hypersurf.lift_polynomial.liftable"], c["hypersurf.lift_polynomial.monomials"]),
        "ratio")
    out["scrolls.path_to_rigid.moves"] = (c["scrolls.path_to_rigid.moves"] / passes, "count")
    out["trace_overhead_s"] = (overhead_s, "s")
    return out


def run(args, work: str) -> int:
    user_env = dict(os.environ)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import toric_deform.cli  # noqa: F401  (loads every layer before tracing)

    expected = workloads.load_expected()
    setup = Setup(workloads.fan_keys(args.workload, expected), work, user_env)
    for _ in range(SETUP_REPEATS):
        fans = setup.sample()
    ops = workloads.MAKE_OPS[args.workload](fans, expected, random.Random(args.seed))
    runner = Runner(ops)
    runner.run_pass()  # warm-up: checked, not timed

    info = {"workload": args.workload, "seed": args.seed, "env": environment()}
    if args.trace:
        tracer = Tracer()
        walls, traced = runner.run_traced(args.seconds, tracer)
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.csv")
        tracer.write_spans(spans_path)
        overhead = statistics.median(traced) - statistics.median(walls)
        metrics = per_layer(tracer, len(traced), overhead)
        info.update(passes=len(walls), traced_passes=len(traced), spans=len(tracer.start),
                    spans_file=os.path.relpath(spans_path, ROOT))
    else:
        walls, latencies = runner.run_for(args.seconds, MIN_COMMANDS, setup.sample)
        metrics = end_to_end(walls, latencies, setup.seconds(), runner)
        info.update(passes=len(walls), commands=len(latencies), setups=len(setup.imports))
    info["failures"] = runner.failures[:5]
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "toric_deform", "cli.py")):
        print(f"perfbench: no toric_deform sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
