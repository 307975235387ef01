"""isoswarm benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload swarm_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``. The
workload's input is a fixed list of units made from the seed. The run
executes every unit once, then cycles through them again while the next
unit would still end within ``--seconds``. Each unit's outputs are checked
against an independent oracle the first time it runs, and must repeat
exactly after that. The run prints provenance and an output digest, then
ends with one JSON line of metrics: end-to-end with ``--trace 0``,
per-layer with ``--trace 1`` (one untraced pass, then one traced pass).
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import namedtuple  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 15

# One timed execution of unit k: its outputs, wall and CPU seconds, and the
# probe rate measured just before it.
Execution = namedtuple("Execution", "k unit wall cpu probe")


def _import_program() -> None:
    """Import isoswarm from this checkout's src/, or exit 1."""
    if not (SRC / "isoswarm" / "__init__.py").is_file():
        sys.exit(f"error: no isoswarm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import isoswarm
    if Path(isoswarm.__file__).resolve().parent != SRC / "isoswarm":
        sys.exit(f"error: isoswarm imported from {isoswarm.__file__}")


def _setup(name: str, seed: int):
    """Import the program and write the workload's inputs; returns the
    workload, its state, its work directory and the set-up seconds."""
    _import_program()
    workload = workloads.WORKLOADS[name]()
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    state = workload.setup(seed, workdir)
    return workload, state, workdir, time.perf_counter() - T0


def _setup_samples(name: str, seed: int) -> list[float]:
    """Set-up seconds of fresh processes that only set up, each scaled to
    the reference host speed by the probe rate measured just before it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        scale = _probe(1) / PROBE_REFERENCE[1]
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.split()[-1]) * scale)
    return samples


# A fixed NumPy-and-interpreter workload, timed before every unit and after
# the last on as many threads as the workload uses (at most 2), and before
# every set-up sample on one. The host's speed drifts by up to +-20% over
# tens of seconds as other tenants load it, which no median inside a 30 s
# run removes; scaling each unit's wall time by the mean rate of the probes
# around it, and each set-up time by the probe before it, cancels that
# drift. On the threaded workload a one-thread probe misses load on the
# other core: over five seeds it left a spread of 0.085, two threads 0.064.
# The probe never touches isoswarm.
_PROBE_POINTS = numpy.random.default_rng(0).standard_normal((5000, 3))
_PROBE_AXIS = numpy.array([0.6, 0.8, 0.0])
PROBE_ITERATIONS = 100
# About the median probe rate (iterations/s, summed over the threads) on the
# 2-vCPU development host, by probe threads; wall and set-up seconds are
# reported at this speed. Two threads reach 1.44 times one.
PROBE_REFERENCE = {1: 3500.0, 2: 5050.0}


def _probe_loop() -> None:
    for _ in range(PROBE_ITERATIONS):
        rel = _PROBE_POINTS - _PROBE_AXIS
        d = rel @ _PROBE_AXIS
        orth = numpy.linalg.norm(rel - d[:, None] * _PROBE_AXIS, axis=1)
        numpy.count_nonzero((d > 0.0) & (orth <= 0.57 * d))
        [float("%.17g" % x) for x in _PROBE_POINTS[:20].flat]


def _probe(threads: int) -> float:
    """Probe iterations per second, summed over `threads` threads."""
    t0 = time.perf_counter()
    if threads == 1:
        _probe_loop()
    else:
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(lambda _: _probe_loop(), range(threads)))
    return threads * PROBE_ITERATIONS / (time.perf_counter() - t0)


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _git_commit() -> str:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


class Run:
    """Timed units of one run, with the checks made on their outputs."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.executions: list[Execution] = []
        self.first = {}  # unit index -> Unit of its first execution
        self.first_failed = {}  # unit index -> {operation: messages}
        self.problems = []  # (execution, operation, messages)
        self.quality = workloads.Checked()
        self.last_probe = None  # probe rate after the last execution
        self.probe_threads = min(workload.threads, 2)

    def execute(self, k: int) -> float:
        probe = _probe(self.probe_threads)
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        raw = self.workload.run_unit(self.state, k)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        unit = self.workload.finish(self.state, raw)
        j = len(self.executions)
        if k in self.first:
            # a repeat fails where the first execution failed, and wherever
            # it differs from the first execution
            failed = dict(self.first_failed[k])
            for i, (a, b) in enumerate(zip(self.first[k].digests,
                                           unit.digests)):
                if a != b:
                    failed.setdefault(i, []).append(
                        "output differs from the unit's first execution")
        else:
            self.first[k] = unit
            found = self.workload.check(self.state, unit)
            failed = self.first_failed[k] = dict(found.failed)
            self.quality.coverage += found.coverage
            self.quality.minus_info_cost += found.minus_info_cost
        self.problems += [(j, i, msgs) for i, msgs in sorted(failed.items())]
        self.executions.append(Execution(k, unit, wall, cpu, probe))
        return wall

    def measure(self, seconds: float) -> None:
        """Every unit once, then more while the next would end in time."""
        n = self.workload.units(self.state)
        start = time.perf_counter()
        while True:
            wall = self.execute(len(self.executions) % n)
            if (len(self.executions) >= n
                    and time.perf_counter() - start + wall > seconds):
                self.last_probe = _probe(self.probe_threads)
                return

    def pass_seconds(self) -> float:
        """Seconds of one pass over the units at the reference host speed:
        the number of units times the median unit's seconds. An execution's
        seconds are its wall time times the mean rate of the probes before
        and after it over the reference rate; a unit's are the median over
        its executions. The median unit, not the sum, because a few
        Nelder-Mead runs per seed stall in shrink steps at up to ten times
        the usual evaluations, and how many a seed draws varies."""
        probes = [e.probe for e in self.executions] + [self.last_probe]
        reference = PROBE_REFERENCE[self.probe_threads]
        scaled = {}
        for e, a, b in zip(self.executions, probes, probes[1:]):
            scaled.setdefault(e.k, []).append(
                e.wall * (a + b) / 2.0 / reference)
        return len(scaled) * statistics.median(
            statistics.median(v) for v in scaled.values())

    def traced_pass(self, tracer) -> dict:
        """Every unit once more under the tracer; returns layer metrics.
        The overhead compares the two passes with each unit's wall time
        scaled by the probe before it, as the host's speed drifts."""
        n = self.workload.units(self.state)
        plain = sum(e.wall * e.probe for e in self.executions[:n])
        tracer.install()
        try:
            for k in range(n):
                self.execute(k)
        finally:
            tracer.uninstall()
        traced = self.executions[-n:]
        wall = sum(e.wall for e in traced)
        layer = spans.layer_metrics(
            tracer, sum(e.cpu for e in traced) / wall,
            sum(e.unit.objective_calls for e in traced))
        layer["trace.overhead_pct"] = 100.0 * (
            sum(e.wall * e.probe for e in traced) / plain - 1.0)
        return layer

    def attempted(self) -> int:
        return sum(len(e.unit.records) for e in self.executions)

    def digest(self) -> str:
        """sha256 over the digests of every unit's first outputs."""
        return hashlib.sha256("".join(
            d for k in sorted(self.first) for d in self.first[k].digests
        ).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    workload, state, workdir, setup_s = _setup(args.workload, args.seed)
    try:
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        run = Run(workload, state)
        if args.trace:
            tracer = spans.Tracer()
            run.measure(0.0)
            layer = run.traced_pass(tracer)
        else:
            run.measure(args.seconds)
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for j, i, msgs in run.problems:
        print(f"FAILED execution {j} operation {i}: {'; '.join(msgs)}",
              file=sys.stderr)
    import isoswarm
    if not args.trace:
        setup = _setup_samples(args.workload, args.seed)
    print(json.dumps({"provenance": {
        "workload": args.workload, "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "isoswarm": isoswarm.__version__, "git_commit": _git_commit(),
        "units": workload.units(state), "executions": len(run.executions),
        "setup_s_this_process": setup_s,
        "first_pass_wall_s": sum(
            e.wall for e in run.executions[:workload.units(state)]),
        "probe_per_s": statistics.median(e.probe for e in run.executions),
        **workload.provenance(state)},
        "digest": run.digest()}))

    if args.trace:
        metrics = {k: {"value": v, "unit": spans.UNITS[k]}
                   for k, v in layer.items()}
        absent = spans.absent_layers(tracer)
        if absent:
            print(f"layers absent: {', '.join(absent)} (missing: "
                  f"{', '.join(tracer.absent)})", file=sys.stderr)
    else:
        q = run.quality
        e2e = {
            "wall_s": (run.pass_seconds(), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "ok_pct": (100.0 * (1.0 - len(run.problems) / run.attempted()),
                       "%"),
            "mean_coverage_pct": (statistics.fmean(q.coverage), "%"),
            "mean_minus_info_cost": (statistics.fmean(q.minus_info_cost),
                                     "1"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": not run.problems,
                      "attempted": run.attempted(),
                      "failed": len(run.problems), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
