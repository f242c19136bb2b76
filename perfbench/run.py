"""gegenkit benchmark: three seeded workloads, every output checked, timings in reference units.

Run from the repository root:

    python3 perfbench/run.py --workload exact-identity --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run repeats whole rounds until ``--seconds`` have passed.  A round is one
pass over the workload's CLI invocations and one pass over its library calls.
A single closed-loop driver makes one call at a time, with at most one CLI
child alive.  A pass's calls are timed in segments, with a batch of
reference-kernel runs (``refkernel.py``) before and after each segment; a
segment's time is reported in units of the mean kernel time of its two
batches.  ``attempted`` and ``failed`` count one round; every later round is
checked too, and must fail on exactly the same operations.

``--trace 0`` prints the end-to-end metrics: the CLI runs as
``python -m gegenkit.cli`` child processes and no wrapper is installed.
``--trace 1`` prints the per-layer metrics: each round runs one untraced
library pass, then the library pass and the CLI (through click's CliRunner,
in process) with span wrappers installed around every layer.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Result and trace files are
written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_RUNS_FIRST = 3
SETUP_RUNS_PER_ROUND = 2
CLI_TIMEOUT_S = 150
# Kernel runs per pass, spread over the batches between its segments; at
# least MIN_KERNEL_BATCH per batch.
KERNEL_RUNS_PER_PASS = 320
MIN_KERNEL_BATCH = 8

sys.path.insert(0, str(HERE))

from refkernel import RefClock  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from workloads import EVAL_TOL, WORKLOADS, Op, Workload  # noqa: E402


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children.

    ``getrusage`` is used rather than ``os.times``, whose clock ticks are too
    coarse for a segment of a few milliseconds.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_child(args: list[str]) -> tuple[int, str]:
    """One ``python -m gegenkit.cli`` child; returns (exit code, stdout)."""
    proc = subprocess.Popen([sys.executable, "-m", "gegenkit.cli", *args], cwd=ROOT,
                            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, stdout


@contextlib.contextmanager
def one_cpu():
    """Pins the driver, and the CLI children it starts meanwhile, to one CPU.

    A child timed against kernel batches that ran on the other vCPU is divided
    by the wrong machine state: on a 2-vCPU VM, unpinned children gave a
    ``cli_ref`` spread of 0.107 over ten seeds of exact-identity, pinned ones
    0.033.  The cost is that a CLI which spreads its work over several CPUs
    cannot show the gain in ``cli_ref``.  The library pass is not pinned.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def peak_rss_mb(workload: Workload) -> float:
    """The largest CLI child's peak RSS, from one untimed pass run by ``peakrss.py``."""
    proc = subprocess.run([sys.executable, str(HERE / "peakrss.py")], cwd=ROOT, env=_child_env(),
                          input=json.dumps([op.args for op in workload.cli_ops]),
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True)
    peak = json.loads(proc.stdout)
    if peak["children_kb"] <= peak["self_kb"]:
        raise RuntimeError(f"peakrss.py itself peaked at {peak['self_kb']} KiB, as high as "
                           f"its children ({peak['children_kb']} KiB): their peak is hidden")
    return peak["children_kb"] / 1024.0


def setup_times(runs: int) -> list[float]:
    """Wall seconds for fresh interpreters to import gegenkit's CLI and print --help."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        code, _ = run_cli_child(["--help"])
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"gegenkit.cli --help exited {code}")
    return times


class Pass:
    """Timings and outputs of one pass over a list of segments."""

    def __init__(self):
        self.walls: list[float] = []       # per segment, in seconds
        self.wall_refs: list[float] = []   # per segment, in kernel units
        self.cpu_refs: list[float] = []
        self.kernel_walls: list[float] = []  # mean kernel seconds paired with each segment
        self.outputs: list[tuple[Op, object]] = []

    @property
    def ref_wall(self) -> float:
        return statistics.fmean(self.kernel_walls)


def timed_pass(clock: RefClock, segments: list[list[Op]], invoke) -> Pass:
    """Run every segment between two batches of kernel runs; segment times in kernel units."""
    result = Pass()
    runs = max(MIN_KERNEL_BATCH, -(-KERNEL_RUNS_PER_PASS // (len(segments) + 1)))
    before = clock.sample(runs)
    for segment in segments:
        outputs = []
        c0 = cpu_seconds()
        w0 = time.perf_counter()
        for op in segment:
            outputs.append(invoke(op))
        wall = time.perf_counter() - w0
        cpu = cpu_seconds() - c0
        after = clock.sample(runs)
        ref_wall, ref_cpu = (before[0] + after[0]) / 2, (before[1] + after[1]) / 2
        result.kernel_walls.append(ref_wall)
        result.walls.append(wall)
        result.wall_refs.append(wall / ref_wall)
        result.cpu_refs.append(cpu / ref_cpu)
        result.outputs += zip(segment, outputs)
        before = after
    return result


def typical_pass(passes: list[list[float]]) -> float:
    """One pass's time: the sum over segments of each segment's median over the rounds.

    A disturbance in one round moves one segment's sample, which the median
    drops, where it would move the sum of that round as a whole.
    """
    return sum(statistics.median(column) for column in zip(*passes))


class Tally:
    """Checks outputs; a failure outside ``may_fail`` makes the run incorrect.

    ``attempted`` and ``failed`` are those of the first counted round, so they
    do not grow with the number of rounds a run fits in.  Every later round
    must fail on the same operations, in the same order.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.failed_ops: list[str] | None = None

    def check(self, outputs) -> list[str]:
        """Checks every output; returns the names of the operations that failed."""
        failed = []
        for op, out in outputs:
            reason = op.check(out)
            if reason is not None:
                failed.append(op.name)
                if not op.may_fail:
                    self.problems.append(reason)
        return failed

    def check_round(self, outputs) -> None:
        failed = self.check(outputs)
        if self.failed_ops is None:
            self.attempted, self.failed, self.failed_ops = len(outputs), len(failed), failed
        elif failed != self.failed_ops:
            self.problems.append(f"failed {len(failed)} operations in a later round, "
                                 f"{len(self.failed_ops)} in the first")

    @property
    def correct(self) -> bool:
        return not self.problems


def _lib_invoker(gk):
    return lambda op: op.call(gk)


def run_untraced(workload: Workload, seconds: float, gk, tally: Tally, clock: RefClock) -> dict:
    cli_passes, lib_passes, raw = [], [], {"cli_pass_s": [], "lib_pass_s": []}
    # Also the CLI's warm-up: the first children may still write bytecode caches.
    peak_mb = peak_rss_mb(workload)
    # Set-up is probed at the start and after every round, so its median
    # covers the whole run rather than one moment of it.
    setup = setup_times(SETUP_RUNS_FIRST)
    start = time.perf_counter()
    while not cli_passes or time.perf_counter() - start < seconds:
        with one_cpu():
            cli = timed_pass(clock, [[op] for op in workload.cli_ops],
                             lambda op: run_cli_child(op.args))
        lib = timed_pass(clock, workload.lib_segments, _lib_invoker(gk))
        tally.check_round(cli.outputs + lib.outputs)
        cli_passes.append(cli.wall_refs)
        lib_passes.append(lib.wall_refs)
        raw["cli_pass_s"].append(sum(cli.walls))
        raw["lib_pass_s"].append(sum(lib.walls))
        setup += setup_times(SETUP_RUNS_PER_ROUND)
    return {
        "cli_ref": (typical_pass(cli_passes), "ref"),
        "lib_ref": (typical_pass(lib_passes), "ref"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "_rounds": {"cli_ref": cli_passes, "lib_ref": lib_passes, **raw},
        "_kernel_s": {"wall": clock.median_wall(), "cpu": clock.median_cpu()},
    }


def run_traced(workload: Workload, seconds: float, gk, tally: Tally, clock: RefClock) -> dict:
    from click.testing import CliRunner

    import gegenkit.cli

    runner = CliRunner()
    tracer = Tracer()
    invoke_cli = tracer.wrap("cli", "invoke", runner.invoke)

    def cli_invoker(op):
        result = invoke_cli(gegenkit.cli.cli, op.args)
        return result.exit_code, result.stdout

    plain, traced, cpu = [], [], []
    per_layer: dict[str, list[float]] = {}
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        untraced = timed_pass(clock, workload.lib_segments, _lib_invoker(gk))
        tracer.reset()
        tracer.install()
        try:
            lib = timed_pass(clock, workload.lib_segments, _lib_invoker(gk))
            after_lib = tracer.layer_totals()
            cli = timed_pass(clock, [[op] for op in workload.cli_ops], cli_invoker)
        finally:
            tracer.uninstall()
        tally.check(untraced.outputs)
        tally.check_round(cli.outputs + lib.outputs)
        plain.append(untraced.wall_refs)
        traced.append(lib.wall_refs)
        cpu.append(untraced.cpu_refs)
        for layer, (calls, self_s) in tracer.layer_totals().items():
            lib_self = after_lib[layer][1]
            per_layer.setdefault(f"{layer}.calls", []).append(calls)
            per_layer.setdefault(f"{layer}.self_ref", []).append(
                lib_self / lib.ref_wall + (self_s - lib_self) / cli.ref_wall)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (statistics.median_low(per_layer[f"{layer}.calls"]), "count")
        metrics[f"{layer}.self_ref"] = (statistics.median(per_layer[f"{layer}.self_ref"]), "ref")
    errors = [check.error for check in workload.evals]
    metrics["gegenbauer.eval_err_max"] = (max(errors, default=0.0), "1")
    metrics["gegenbauer.eval_err_count"] = (sum(e > EVAL_TOL for e in errors), "count")
    metrics["lib.cpu_ref"] = (typical_pass(cpu), "ref")
    metrics["ref.wall_s"] = (clock.median_wall(), "s")
    metrics["ref.cpu_s"] = (clock.median_cpu(), "s")
    metrics["trace.overhead_ref"] = (typical_pass(traced) - typical_pass(plain), "ref")
    metrics["_rounds"] = {"lib_ref": [sum(p) for p in plain],
                          "traced_lib_ref": [sum(p) for p in traced]}
    metrics["_functions"] = {k: {"calls": c, "self_s": s, "total_s": t}
                             for k, (c, s, t) in sorted(tracer.stats.items())}
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    import gegenkit

    workload = WORKLOADS[name](seed, small=small)
    clock = RefClock()
    tally = Tally()
    # Warm up the library code paths in process on the small variant of the
    # workload; its outputs are checked but not counted.
    tally.check(timed_pass(clock, WORKLOADS[name](seed, small=True).lib_segments,
                           _lib_invoker(gegenkit)).outputs)
    run = run_traced if trace else run_untraced
    metrics = run(workload, seconds, gegenkit, tally, clock)
    details = {key: metrics.pop(key) for key in [k for k in metrics if k.startswith("_")]}
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  problems=tally.problems[:20], failed_ops=tally.failed_ops, **details)
    out = RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return result


def smoke() -> int:
    """One short round per workload, untraced and traced, with every check."""
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, seed=1, seconds=0, trace=trace, small=True)
            ok = ok and result["correct"]
            print(f"{name} trace={int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short round of every workload, traced and untraced")
    args = parser.parse_args(argv)
    if not (SRC / "gegenkit" / "cli.py").is_file():
        print(f"benchmark: no gegenkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
