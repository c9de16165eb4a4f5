"""The benchmark's three closed-loop workloads: search, verify and cli.

Each workload runs one client in this process and has the same shape:

- ``setup(seed)`` builds what every operation needs and runs a warm-up;
- ``cycle`` is the length of one pass over the input mix, so counts per
  operation repeat exactly over whole passes;
- ``make_input(i)`` makes the input of operation ``i`` (not timed);
- ``call(inp)`` runs the program on it and returns plain data (timed);
- ``check(inp, out)`` compares that data with the oracle (not timed).

The library workloads reach the program only through the ``qbell`` package
object they are given, so the names they use can be listed and checked.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import inputs
import oracle
from inputs import ANGLE_MODES, KINDS_4, KINDS_N, X_MODES, rng_for

VALUE_TOL = 1e-6        # optimizer result against the closed-form maximum
ENTROPY_TOL = 1e-9      # entropies and slacks, in nats
PROB_TOL = 1e-11        # tomogram entries (the program clamps at 1e-12)
APPENDIX_TOL = 1e-12    # appendix value against the oracle's bilinear form
CLASS_MARGIN = 1e-5     # classification is checked only this far from 2

WITHIN = "within_separable_bound"
HIDDEN = "hidden_bell_correlation"


def expected_class(value: float):
    """The classification a value implies, or None too close to 2 to tell."""
    if value < 2.0 - CLASS_MARGIN:
        return WITHIN
    if 2.0 + CLASS_MARGIN < value <= oracle.TSIRELSON + 1e-9:
        return HIDDEN
    return None


def close(a, b, tol) -> bool:
    return bool(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))) <= tol)


# ---------------------------------------------------------------------------
# search: the optimizer on a pool of states that repeat across operations.

@dataclass(frozen=True)
class SearchState:
    matrix: np.ndarray
    expected: float
    werner_p: float | None


class Search:
    """validate + maximize_bell(restarts=8, seed=k) + classify on 4x4 states."""

    name = "search"
    specs = [(kind, rotated) for kind in KINDS_4 for rotated in (False, True)]
    cycle = len(specs)
    pool_passes = 64
    restarts = 8

    def __init__(self, qb):
        self.qb = qb
        self.pool = []

    def setup(self, seed: int) -> None:
        pool = []
        for j in range(self.cycle * self.pool_passes):
            kind, rotated = self.specs[j % self.cycle]
            m, p = inputs.state4(rng_for(seed, 0, j), kind, rotated)
            pool.append(SearchState(m, oracle.chsh_maximum(m), p))
        self.pool = pool
        # A fixed warm-up input keeps the set-up cost independent of the seed.
        warm = SearchState(inputs.werner_state(0.5), oracle.TSIRELSON / 2.0, 0.5), 0
        self.check(warm, self.call(warm))

    def make_input(self, i: int):
        return self.pool[i % len(self.pool)], i

    def call(self, inp):
        state, k = inp
        rho = self.qb.validate(state.matrix)
        report = self.qb.maximize_bell(rho, restarts=self.restarts, seed=k)
        return report.value, self.qb.classify(report).value

    def check(self, inp, out) -> bool:
        state, _ = inp
        value, cls = out
        if abs(value - state.expected) > VALUE_TOL:
            return False
        if state.werner_p is not None and abs(value - oracle.TSIRELSON * state.werner_p) > VALUE_TOL:
            return False
        want = expected_class(state.expected)
        return want is None or cls == want


def divergence_matches(got, p1, p2) -> bool:
    """``got`` (None for DIVERGENT) against the oracle's relative entropy."""
    want = oracle.relative_entropy(np.clip(p1, 0.0, None), p2)
    if (want is None) != (got is None):
        return False
    return want is None or abs(got - want) <= ENTROPY_TOL * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# verify: every other module on fresh states, each used once.

@dataclass
class VerifyInput:
    matrix: np.ndarray
    partner: np.ndarray | None = None
    first: tuple = ()
    second: tuple = ()
    observable: np.ndarray | None = None
    x: float = 0.0
    quad: tuple = ()
    # relative_entropy compares two distributions; a state with an eigenvalue
    # at -5e-10 read in its eigenbasis gives a tomogram with a -5e-10 entry,
    # which is not one, so that pair is left to tolerance_edge_probe.
    compare: bool = True


def _verify_schedule():
    """126 operations: 42 4x4 specs interleaved with 42 6x6 and 42 8x8 specs.

    A 4x4 operation costs about 2.5 times a 6x6 or 8x8 one. With a third of
    each dimension the median latency falls inside the cheaper group and the
    90th percentile inside the 4x4 group, not in the gap between them, where
    a small change of speed would make either jump.
    """
    specs4 = [(4, kind, rotated, mode) for kind in KINDS_4 for rotated in (False, True)
              for mode in ANGLE_MODES]
    specs6, specs8 = ([(dim, KINDS_N[j % len(KINDS_N)], False, None) for j in range(len(specs4))]
                      for dim in (6, 8))
    return [s for triple in zip(specs4, specs6, specs8) for s in triple]


class Verify:
    """validate + check_subadditivity on every n x m partition; for 4x4 also
    joint_tomogram, relative_entropy and appendix_bell_value."""

    name = "verify"
    schedule = _verify_schedule()
    cycle = len(schedule)
    warmup_ops = len(schedule)

    def __init__(self, qb):
        self.qb = qb
        self.seed = 0

    def setup(self, seed: int) -> None:
        self.seed = seed
        for i in range(self.warmup_ops):
            self.call(self.make_input(-1 - i))

    def make_input(self, i: int) -> VerifyInput:
        dim, kind, rotated, mode = self.schedule[i % self.cycle]
        rng = rng_for(self.seed, 1, i % (1 << 62))
        if dim != 4:
            return VerifyInput(inputs.state_n(rng, dim, kind))
        m, _ = inputs.state4(rng, kind, rotated)
        # On the axis the tomograms read diagonals, so a partner with an
        # exact zero makes the relative entropy diverge.
        partner = inputs.diagonal_with_zero(rng) if mode == "axis" else inputs.haar_state(rng, 4)
        first, second = inputs.directions(rng, mode, 2)
        f = inputs.observable(rng)
        x_mode = X_MODES[(KINDS_4.index(kind) + rotated) % len(X_MODES)]
        x = inputs.shift_above(rng, oracle.min_shift(f), x_mode)
        quad = tuple(inputs.directions(rng, mode, 4))
        compare = bool(np.min(oracle.joint_probabilities(m, first, second)) >= -oracle.SUPPORT_CUTOFF)
        return VerifyInput(m, partner, first, second, f, x, quad, compare)

    def call(self, inp: VerifyInput) -> dict:
        qb = self.qb
        rho = qb.validate(inp.matrix)
        reports = []
        for n, k in oracle.partitions(rho.dim):
            r = qb.check_subadditivity(rho, qb.BlockPartition(n, k))
            reports.append((r.s_joint, r.s_first, r.s_second, r.slack_sub, r.slack_al,
                            r.subadditivity_holds, r.araki_lieb_holds))
        out = {"entropy": reports}
        if inp.partner is None:
            return out
        sigma = qb.validate(inp.partner)
        a1, a2 = qb.EulerAngles(*inp.first), qb.EulerAngles(*inp.second)
        w1 = qb.joint_tomogram(rho, a1, a2)
        w2 = qb.joint_tomogram(sigma, a1, a2)
        out.update(w1=w1.tolist(), w2=w2.tolist())
        if inp.compare:
            divergence = qb.relative_entropy(w1, w2)
            out["divergence"] = None if divergence is qb.DIVERGENT else float(divergence)
        f = qb.ObservableMatrix(inp.observable)
        quad = qb.UnitaryQuadruple(*(qb.EulerAngles(phi, theta) for phi, theta in inp.quad))
        out["appendix"] = qb.appendix_bell_value(f, inp.x, quad)
        return out

    def check(self, inp: VerifyInput, out: dict) -> bool:
        m = inp.matrix
        parts = oracle.partitions(m.shape[0])
        if len(out["entropy"]) != len(parts):
            return False
        for (n, k), rep in zip(parts, out["entropy"]):
            s_joint, s_first, s_second, slack_sub, slack_al, sub_ok, al_ok = rep
            if not close((s_joint, s_first, s_second), oracle.entropies(m, n, k), ENTROPY_TOL):
                return False
            if slack_sub < -ENTROPY_TOL or slack_al < -ENTROPY_TOL or not (sub_ok and al_ok):
                return False
        if inp.partner is None:
            return True
        p1 = oracle.joint_probabilities(m, inp.first, inp.second)
        p2 = oracle.joint_probabilities(inp.partner, inp.first, inp.second)
        for got, want in ((out["w1"], p1), (out["w2"], p2)):
            if not close(got, want, PROB_TOL) or abs(sum(got) - 1.0) > ENTROPY_TOL:
                return False
        if ("divergence" in out) != inp.compare:
            return False
        if inp.compare and not divergence_matches(out["divergence"], p1, p2):
            return False
        a, d, b, c = inp.quad
        want_app = abs(oracle.bell_value(oracle.shifted_state(inp.observable, inp.x), a, d, b, c))
        return abs(out["appendix"] - want_app) <= APPENDIX_TOL


EDGE_STATE = np.diag([inputs.EDGE_EIGENVALUE, 0.2, 0.3, 0.5 - inputs.EDGE_EIGENVALUE])
EDGE_STATUSES = ("rejected", "ok", "wrong", "not_validated")


def tolerance_edge_probe(qb) -> str:
    """Carry a state with an eigenvalue at -5e-10 through validate,
    joint_tomogram on its eigenbasis and relative_entropy against the
    uniform distribution.

    Returns "rejected" when relative_entropy raises on the tomogram of a
    state that validate accepted (a known defect of the tolerance chain),
    "ok" for the oracle's value, "wrong" for another value and
    "not_validated" when validate or joint_tomogram already refuses the state.
    """
    axis = qb.EulerAngles(0.0, 0.0)
    try:
        w = qb.joint_tomogram(qb.validate(EDGE_STATE), axis, axis)
    except ValueError:
        return "not_validated"
    uniform = np.full(4, 0.25)
    try:
        value = qb.relative_entropy(w, uniform)
    except ValueError:
        return "rejected"
    got = None if value is qb.DIVERGENT else float(value)
    p = oracle.joint_probabilities(EDGE_STATE, (0.0, 0.0), (0.0, 0.0))
    return "ok" if divergence_matches(got, p, uniform) else "wrong"


# ---------------------------------------------------------------------------
# cli: whole command-line runs in fresh interpreters.

SUBCOMMANDS = ("check", "entropy", "tomogram", "bell", "bell-max", "appendix", "embed-qutrit")
WALL_TIME = re.compile(r', "wall_time_ms": [-+0-9.eE]+\}\s*$')


@dataclass
class Case:
    name: str
    argv: tuple
    matrix: np.ndarray | None = None
    expect: dict = field(default_factory=dict)


def _angle_args(pairs):
    return [repr(float(v)) for pair in pairs for v in pair]


class Cli:
    """``python -m qbell.cli`` in a fresh process per operation, rotating
    over all seven subcommands; a few input files are invalid (exit 2)."""

    name = "cli"
    cycle = 24  # 3 rounds over the 7 subcommands plus one invalid file each

    def __init__(self, root: str, env: dict, cli_module):
        self.root = root
        self.env = env
        self.cli_module = cli_module
        self.workdir = os.path.join(root, ".bench_work", str(os.getpid()))
        self.cases = []
        self.seen = {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.workdir))

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _matrix_file(self, name: str, m: np.ndarray) -> str:
        doc = {"dim": int(m.shape[0]), "re": m.real.tolist(), "im": m.imag.tolist(),
               "label": name}
        return self._write(name, json.dumps(doc))

    def setup(self, seed: int) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.cases = self._cases(rng_for(seed, 2))
        self.seen = {}
        warm = self.make_input(0)
        self.check(warm, self.call(warm))

    def _cases(self, rng):
        s4 = []
        for j, kind in enumerate(KINDS_4):
            m, p = inputs.state4(rng, kind, rotated=j % 2 == 1)
            s4.append((self._matrix_file(f"state4_{kind}", m), m, p))
        s6 = inputs.state_n(rng, 6, "product_mixture")
        s8 = inputs.state_n(rng, 8, "edge")
        f6, f8 = self._matrix_file("state6", s6), self._matrix_file("state8", s8)
        observables = [inputs.observable(rng) for _ in range(3)]
        obs_files = [self._matrix_file(f"observable{j}", f) for j, f in enumerate(observables)]
        qutrits = [inputs.haar_state(rng, 3) for _ in range(3)]
        q_files = [self._matrix_file(f"qutrit{j}", q) for j, q in enumerate(qutrits)]

        def case(name, sub, path, m, *args, **expect):
            return Case(name, (sub, path, *args), m, expect)

        def state(kind):
            return s4[KINDS_4.index(kind)]

        per_sub = {
            "check": [case("state4_edge", "check", *state("edge")[:2]),
                      case("state6", "check", f6, s6),
                      case("state8", "check", f8, s8)],
            "entropy": [case("state4_rank_deficient", "entropy", *state("rank_deficient")[:2],
                             "--partition", "2", "2", partition=(2, 2)),
                        case("state6", "entropy", f6, s6, "--partition", "3", "2",
                             partition=(3, 2)),
                        case("state8", "entropy", f8, s8, "--partition", "2", "4",
                             partition=(2, 4))],
        }
        tomo, bell = [], []
        for kind, mode in (("edge", "axis"), ("qutrit", "equator"), ("haar", "random")):
            pairs = inputs.directions(rng, mode, 2)
            tomo.append(case(f"state4_{kind}", "tomogram", *state(kind)[:2],
                             "--angles", *_angle_args(pairs), angles=pairs))
        for kind, mode in (("werner", "random"), ("separable", "axis"), ("degenerate", "equator")):
            pairs = inputs.directions(rng, mode, 4)
            bell.append(case(f"state4_{kind}", "bell", *state(kind)[:2],
                             "--angles", *_angle_args(pairs), angles=pairs))
        per_sub["tomogram"], per_sub["bell"] = tomo, bell
        per_sub["bell-max"] = [
            case(f"state4_{kind}", "bell-max", *state(kind)[:2], "--restarts", "8", "--seed", "7",
                 werner_p=state(kind)[2])
            for kind in ("werner", "haar", "qutrit")]
        appendix = []
        for j, (f, path) in enumerate(zip(observables, obs_files)):
            x_min = oracle.min_shift(f)
            x = (10.0, inputs.shift_above(rng, x_min, "just_above"),
                 inputs.shift_above(rng, x_min, "wide"))[j]
            args = ["--x", repr(x)]
            quad = None
            if j == 2:
                quad = inputs.directions(rng, "random", 4)
                args += ["--angles", *_angle_args(quad)]
            appendix.append(case(f"observable{j}", "appendix", path, f, *args, x=x, quad=quad))
        per_sub["appendix"] = appendix
        per_sub["embed-qutrit"] = [case(f"qutrit{j}", "embed-qutrit", path, q)
                                   for j, (q, path) in enumerate(zip(qutrits, q_files))]

        haar = state("haar")[1]
        nonherm = haar.copy()
        nonherm[0, 1] += 1e-3
        negative = np.diag([-1e-3, 0.301, 0.3, 0.4]).astype(np.complex128)
        invalid = [
            case("nonhermitian", "check", self._matrix_file("nonhermitian", nonherm), None,
                 invalid=True),
            case("broken", "entropy", self._write("broken", '{"dim": 4,\n "re": [[1, 0], }'),
                 None, "--partition", "2", "2", invalid=True),
            case("negative", "bell-max", self._matrix_file("negative", negative), None,
                 invalid=True),
        ]
        cases = []
        for r in range(3):
            cases += [per_sub[sub][r] for sub in SUBCOMMANDS]
            cases.append(invalid[r])
        return cases

    def make_input(self, i: int):
        return i % self.cycle

    def call(self, index: int):
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", *self.cases[index].argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def call_in_process(self, index: int):
        """The same operation through ``qbell.cli.main`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli_module.main(list(self.cases[index].argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, index: int, out) -> bool:
        case = self.cases[index]
        code, stdout, stderr = out
        if case.expect.get("invalid"):
            return code == 2 and stdout == "" and stderr.startswith("qbell: error:")
        if code != 0:
            return False
        stable = WALL_TIME.sub("}", stdout.strip())
        if self.seen.setdefault(index, stable) != stable:
            return False
        doc = json.loads(stdout)
        sub = case.argv[0]
        if sub == "embed-qutrit":
            want = np.zeros((4, 4), dtype=np.complex128)
            want[:3, :3] = case.matrix
            got = np.array(doc["re"]) + 1j * np.array(doc["im"])
            return doc["dim"] == 4 and doc["label"] == case.name and np.array_equal(got, want)
        if doc["command"] != sub or doc["input_label"] != case.name:
            return False
        for v in doc["verdicts"]:
            # Exceeding the separable bound is a finding, not a failed check.
            want = v["value"] <= 2.0 + 1e-6 if v["check_name"] == "separable_bound" else True
            if v["holds"] != want:
                return False
        return getattr(self, "_check_" + sub.replace("-", "_"))(case, doc["result"])

    @staticmethod
    def _check_check(case, result):
        want = np.linalg.eigvalsh(case.matrix)
        return result["dim"] == case.matrix.shape[0] and close(result["spectrum"], want, ENTROPY_TOL)

    @staticmethod
    def _check_entropy(case, result):
        n, k = case.expect["partition"]
        got = (result["s_joint"], result["s_first"], result["s_second"])
        return close(got, oracle.entropies(case.matrix, n, k), ENTROPY_TOL)

    @staticmethod
    def _check_tomogram(case, result):
        first, second = case.expect["angles"]
        want = oracle.joint_probabilities(case.matrix, first, second)
        return close(result["probabilities"], want, PROB_TOL)

    @staticmethod
    def _check_bell(case, result):
        want = oracle.bell_value(case.matrix, *case.expect["angles"])
        if abs(result["bell_number"] - want) > APPENDIX_TOL:
            return False
        cls = expected_class(abs(want))
        return cls is None or result["classification"] == cls

    @staticmethod
    def _check_bell_max(case, result):
        want = oracle.chsh_maximum(case.matrix)
        p = case.expect["werner_p"]
        if abs(result["value"] - want) > VALUE_TOL:
            return False
        if p is not None and abs(result["value"] - oracle.TSIRELSON * p) > VALUE_TOL:
            return False
        cls = expected_class(want)
        return cls is None or result["classification"] == cls

    @staticmethod
    def _check_appendix(case, result):
        f, x = case.matrix, case.expect["x"]
        if result["x"] != x or abs(result["min_admissible_x"] - oracle.min_shift(f)) > 1e-12 * x:
            return False
        rho = oracle.shifted_state(f, x)
        q = result["quadruple"]
        reported = [(q[u]["phi"], q[u]["theta"]) for u in ("u1", "u2", "u3", "u4")]
        if case.expect["quad"] is not None and not close(reported, case.expect["quad"], 0.0):
            return False
        if abs(result["value"] - abs(oracle.bell_value(rho, *reported))) > APPENDIX_TOL:
            return False
        if case.expect["quad"] is None:
            return abs(result["value"] - oracle.chsh_maximum(rho)) <= VALUE_TOL
        return True
