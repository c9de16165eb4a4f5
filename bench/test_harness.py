"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_harness.py -q

They check that a short run emits every metric named in BENCHMARK.json with
its unit, that corrupted outputs are counted as failed, that the workloads
use exactly the program names listed in bench/manifest.json, that tracing
survives names the program no longer has, and that the benchmark refuses to
run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
import types

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _manifest():
    with open(os.path.join(BENCH, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def qbell():
    return run.prepare_environment()


@pytest.fixture
def workload(qbell, request):
    wl = run.make_workload(request.param, qbell)
    wl.setup(1)
    yield wl
    if hasattr(wl, "close"):
        wl.close()


def _bench(cwd, *args, timeout=180):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    proc = _bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = _spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def _perturb(doc, key):
    """Shift every float under ``doc[key]`` by 1e-3."""
    def walk(v):
        if isinstance(v, float):
            return v + 1e-3
        if isinstance(v, list):
            return [walk(x) for x in v]
        if isinstance(v, dict):
            return {k: walk(x) for k, x in v.items()}
        return v
    doc[key] = walk(doc[key])
    return doc


def _corrupt_cli(out):
    code, stdout, stderr = out
    if code == 2:
        return 0, stdout, stderr
    doc = json.loads(stdout)
    doc = _perturb(doc, "re" if "re" in doc else "result")
    return code, json.dumps(doc), stderr


CORRUPT = {
    "search": lambda out: (out[0] + 1e-3, out[1]),
    "verify": lambda out: {**out, "entropy": [(r[0] + 1e-6, *r[1:]) for r in out["entropy"]]},
    "cli": _corrupt_cli,
}


@pytest.mark.parametrize("workload", run.WORKLOADS, indirect=True)
def test_corrupted_outputs_are_counted_as_failed(workload):
    clean = run.measure(workload, 1.0)
    assert clean.wrong == 0 and len(clean.latencies) >= 1
    tally = run.measure(workload, 1.0, corrupt=CORRUPT[workload.name])
    assert tally.attempted >= 1
    assert tally.failed == tally.attempted and tally.wrong >= 1
    assert tally.summary()["correct"] is False


@pytest.mark.parametrize("workload", ["verify"], indirect=True)
def test_verify_checks_every_output_field(workload):
    fields = {
        "w1": lambda o: {**o, "w1": [o["w1"][0] + 1e-6, *o["w1"][1:]]},
        "w2": lambda o: {**o, "w2": [o["w2"][0] - 1e-6, *o["w2"][1:]]},
        "divergence": lambda o: {**o, "divergence": 0.5 if o.get("divergence") is None
                                 else o["divergence"] + 1e-6},
        "appendix": lambda o: {**o, "appendix": o["appendix"] + 1e-9},
        "slack": lambda o: {**o, "entropy": [(*r[:3], -1e-6, *r[4:]) for r in o["entropy"]]},
    }
    checked = 0
    for i in range(workload.cycle):
        inp = workload.make_input(i)
        out = workload.call(inp)
        assert workload.check(inp, out)
        if inp.partner is None:
            continue
        for name, corrupt in fields.items():
            assert not workload.check(inp, corrupt(out)), (i, name)
        checked += 1
    assert checked > 0


def test_verify_leaves_only_the_edge_tomogram_to_the_probe(qbell):
    wl = run.make_workload("verify", qbell)
    wl.setup(2)
    skipped = [wl.schedule[i] for i in range(wl.cycle) if not wl.make_input(i).compare]
    assert skipped == [(4, "edge", False, "axis")]


def test_tolerance_edge_probe_tells_a_fix_from_a_wrong_value(qbell):
    import numpy as np
    import workloads
    assert workloads.tolerance_edge_probe(qbell) in workloads.EDGE_STATUSES
    fixed = _Recorder(qbell)
    fixed.relative_entropy = lambda w1, w2: qbell.relative_entropy(np.clip(w1, 0.0, None), w2)
    assert workloads.tolerance_edge_probe(fixed) == "ok"
    wrong = _Recorder(qbell)
    wrong.relative_entropy = lambda w1, w2: 0.5
    assert workloads.tolerance_edge_probe(wrong) == "wrong"


class _Recorder:
    """Stands in for the qbell package and records the names looked up."""

    def __init__(self, module):
        self._module = module
        self.used = set()

    def __getattr__(self, name):
        self.used.add(name)
        return getattr(self._module, name)


@pytest.mark.parametrize("name", ["search", "verify"])
def test_library_workloads_use_the_listed_names(qbell, name):
    recorder = _Recorder(qbell)
    wl = run.make_workload(name, recorder)
    wl.setup(5)
    for i in range(wl.cycle):
        wl.call(wl.make_input(i))
    assert sorted(recorder.used) == sorted(_manifest()["workloads"][name]["calls"])


@pytest.mark.parametrize("workload", ["cli"], indirect=True)
def test_cli_workload_covers_the_listed_subcommands(workload):
    used = {case.argv[0] for case in workload.cases}
    assert sorted(used) == sorted(_manifest()["workloads"]["cli"]["calls"])
    invalid = sum(bool(case.expect.get("invalid")) for case in workload.cases)
    assert 0 < invalid < len(workload.cases) / 4


def _fake_package(monkeypatch):
    """fakepkg.bell with an inner call and a result lacking ``stats``."""
    pkg = types.ModuleType("fakepkg")
    bell = types.ModuleType("fakepkg.bell")

    def bell_number(delay):
        time.sleep(delay)
        return 1.0

    def maximize_bell(delay):
        time.sleep(delay)
        return bell.bell_number(delay)

    bell.bell_number, bell.maximize_bell = bell_number, maximize_bell
    pkg.maximize_bell = maximize_bell
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.bell", bell)
    return pkg, bell


def test_tracer_self_time_and_missing_names(monkeypatch):
    pkg, bell = _fake_package(monkeypatch)
    original = bell.maximize_bell
    targets = (("bell", "maximize_bell"), ("bell", "bell_number"), ("bell", "removed"),
               ("gone", "function"))
    tracer = tracing.Tracer(package="fakepkg", targets=targets)
    tracer.install()
    assert pkg.maximize_bell is bell.maximize_bell is not original
    tracer.enabled = True
    for _ in range(2):
        with tracer.operation():
            pkg.maximize_bell(0.02)
    tracer.uninstall()
    assert pkg.maximize_bell is bell.maximize_bell is original
    metrics = tracer.metrics()
    assert metrics["bell.maximize_bell.calls"] == (1.0, "count")
    assert metrics["bell.bell_number.calls"] == (1.0, "count")
    assert 18.0e3 < metrics["bell.maximize_bell.self_us"][0] < 35.0e3
    assert 0.3 < metrics["bell.maximize_bell.share"][0] < 0.6
    assert not any(k.startswith(("bell.removed", "gone.")) for k in metrics)
    # The result has no stats.evaluations field, so that count is absent.
    assert "bell.maximize_bell.evaluations" not in metrics


def test_tracer_sees_calls_between_program_modules(qbell):
    import numpy as np
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        with tracer.operation():
            qbell.check_subadditivity(qbell.validate(np.eye(4) / 4.0), qbell.BlockPartition(2, 2))
    finally:
        tracer.enabled = False
        tracer.uninstall()
    metrics = tracer.metrics()
    # validate is reached directly and through both block traces
    assert metrics["density.validate.calls"] == (3.0, "count")
    assert metrics["entropy.von_neumann.calls"] == (3.0, "count")
    assert qbell.validate.__module__ == "qbell.density" and not hasattr(qbell.validate, "__wrapped__")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "search", "--seed", "1", "--seconds", "1",
                  "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
