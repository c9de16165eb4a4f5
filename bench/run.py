"""Benchmark of qbell on three closed-loop workloads: search, verify and cli.

    python3 bench/run.py --workload {search,verify,cli} --seed N --seconds S --trace {0,1}
    for w in search verify cli; do python3 bench/run.py --workload $w --seed 1 --seconds 40; done

Run it from the root of a checkout: it imports the program from ``src/``
and exits with code 2 when there is none. The inputs come from ``--seed``
only. Each workload first runs its set-up several times, then operations
one after another for ``--seconds``; every output is checked against the
benchmark's own oracle.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. An operation fails when the program raises,
exits with the wrong code, or disagrees with the oracle; ``correct`` is
false only when the program returned an output that disagrees with the
oracle (a wrong answer, as opposed to an error). With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
passes over the input mix alternate, and the metrics are the per-function
ones from the traced passes plus the tracing overhead and the outcome of
the tolerance-edge probe (see ``workloads.tolerance_edge_probe``), which
every run makes once before set-up. An environment stamp, the probe's
outcome and a summary of failures go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_MIN_REPEATS = 5
SETUP_SECONDS = 2.5
FLOOR_REPEATS = 7
WORKLOADS = ("search", "verify", "cli")


class ProgramMissing(Exception):
    """The checkout holds no importable program under src/."""


def prepare_environment():
    """Pin BLAS and OpenMP to one thread, then import qbell from ``src/``.

    Must run before numpy is imported for the thread settings to apply.
    """
    os.environ.update(SINGLE_THREAD)
    os.environ.pop("QBELL_SEED", None)
    if not os.path.isfile(os.path.join(SRC, "qbell", "__init__.py")):
        raise ProgramMissing(f"no program at {SRC}/qbell")
    sys.path.insert(0, SRC)
    import qbell
    if not os.path.abspath(qbell.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"qbell was imported from {qbell.__file__}, not from {SRC}")
    return qbell


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def environment_stamp() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def make_workload(name: str, qbell):
    import workloads
    if name == "search":
        return workloads.Search(qbell)
    if name == "verify":
        return workloads.Verify(qbell)
    import qbell.cli
    return workloads.Cli(ROOT, child_env(), qbell.cli)


class Tally:
    """Outcomes and timings of the operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.latencies = []     # seconds, successful operations only
        self.by_position = defaultdict(list)    # the same, by position in the input mix
        self.errors = Counter()

    @property
    def failed(self) -> int:
        return self.raised + self.wrong

    def summary(self) -> dict:
        return {"correct": self.wrong == 0, "attempted": self.attempted, "failed": self.failed}


def run_op(wl, i: int, call, tally: Tally, tracer=None, corrupt=None) -> float:
    """Run and check operation ``i``; returns the seconds spent in ``call``."""
    inp = wl.make_input(i)
    tally.attempted += 1
    start = time.perf_counter()
    try:
        if tracer is None:
            out = call(inp)
        else:
            with tracer.operation():
                out = call(inp)
    except Exception as e:  # the program failing on an input is a measured outcome
        elapsed = time.perf_counter() - start
        tally.raised += 1
        tally.errors[f"{type(e).__name__}: {str(e)[:80]}"] += 1
        return elapsed
    elapsed = time.perf_counter() - start
    if corrupt is not None:
        out = corrupt(out)
    try:
        ok = wl.check(inp, out)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError):
        ok = False
    if ok:
        tally.latencies.append(elapsed)
        tally.by_position[i % wl.cycle].append(elapsed)
    else:
        tally.wrong += 1
        tally.errors[f"wrong output at position {i % wl.cycle} of the input mix"] += 1
    return elapsed


def timed_setup(wl, seed: int) -> float:
    """Median set-up time over repeats of the same set-up: at least
    SETUP_MIN_REPEATS, and more while less than SETUP_SECONDS were spent, so
    a cheap set-up is sampled often enough to be steady."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_SECONDS:
        start = time.perf_counter()
        wl.setup(seed)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(wl, seconds: float, corrupt=None) -> Tally:
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        run_op(wl, i, wl.call, tally, corrupt=corrupt)
        i += 1
    return tally


def end_to_end(wl, setup_s: float, tally: Tally) -> dict:
    """Latencies are over successful operations. ``ops_per_s`` is the number
    of positions in the input mix over the sum of their median latencies: the
    rate of one pass at the typical cost of each input, so a pause of the
    shared host that hits a few operations does not move it. Peak memory is
    this process's, or for cli the largest child's."""
    lat_ms = sorted(x * 1000.0 for x in tally.latencies)
    typical = [statistics.median(v) for v in tally.by_position.values()]
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(typical) / sum(typical), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
                           if len(lat_ms) > 1 else lat_ms[0], "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def startup_floor() -> dict:
    """Interpreter start and ``import qbell.cli`` in fresh processes (median ms)."""
    def median_ms(code):
        times = []
        for _ in range(FLOOR_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                           check=True, timeout=60)
            times.append((time.perf_counter() - start) * 1000.0)
        return statistics.median(times)

    interpreter = median_ms("pass")
    return {"cli.interpreter_ms": (interpreter, "ms"),
            "cli.import_ms": (median_ms("import qbell.cli") - interpreter, "ms")}


def traced(wl, seconds: float) -> tuple:
    """Run each pass over the input mix untraced, then again traced."""
    import qbell.cli  # noqa: F401  (so its functions are traced in every workload)
    import tracing
    metrics = startup_floor()
    call = wl.call_in_process if wl.name == "cli" else wl.call
    tracer = tracing.Tracer()
    tracer.install()
    tally = Tally()
    spent = {False: 0.0, True: 0.0}
    deadline = time.perf_counter() + seconds
    base = 0
    try:
        while base == 0 or time.perf_counter() < deadline:
            for on in (False, True):
                tracer.enabled = on
                for i in range(base, base + wl.cycle):
                    spent[on] += run_op(wl, i, call, tally, tracer=tracer if on else None)
            base += wl.cycle
    finally:
        tracer.enabled = False
        tracer.uninstall()
    metrics.update(tracer.metrics())
    metrics["trace.overhead_pct"] = (100.0 * (spent[True] / spent[False] - 1.0), "%")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        qbell = prepare_environment()
    except (ProgramMissing, ImportError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment_stamp()}), file=sys.stderr)

    seed = args.seed % (1 << 63)
    import workloads
    edge = workloads.tolerance_edge_probe(qbell)
    print(f"bench: tolerance-edge probe: {edge}", file=sys.stderr)
    wl = make_workload(args.workload, qbell)
    try:
        if args.trace:
            wl.setup(seed)
            tally, metrics = traced(wl, args.seconds)
            metrics["entropy.relative_entropy.edge_rejects"] = (float(edge == "rejected"), "count")
        else:
            setup_s = timed_setup(wl, seed)
            tally = measure(wl, args.seconds)
            metrics = end_to_end(wl, setup_s, tally) if tally.latencies else None
    finally:
        if hasattr(wl, "close"):
            wl.close()
    for message, count in tally.errors.most_common():
        print(f"bench: {count} x {message}", file=sys.stderr)
    if metrics is None:
        print("bench: no operation succeeded, so nothing was measured", file=sys.stderr)
        return 1
    result = tally.summary()
    result["correct"] = result["correct"] and edge != "wrong"
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
