"""Acceptance suite: one test per release criterion, run at full scale.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and then asserts, so the suite doubles as a
human-readable checklist.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from conftest import PHI_PLUS, bell_number_sign_form, random_hermitian

from qbell.appendix import (
    ObservableMatrix,
    UnitaryQuadruple,
    appendix_bell_value,
    min_admissible_x,
    rho_of_x,
)
from qbell.bell import BellSetting, bell_number, maximize_bell
from qbell.bell import _PAULI_KRON  # test-side batch oracle reuses the constants
from qbell.channels import BlockPartition
from qbell.cli import main
from qbell.density import embed_qutrit, random_density, separable_sample, validate
from qbell.entropy import DIVERGENT, check_subadditivity, relative_entropy
from qbell.tomography import EulerAngles, joint_tomogram

TWO_SQRT2 = 2.0 * math.sqrt(2.0)


def _verdict(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"acceptance {num} [{name}]: {status}{' - ' + detail if detail else ''}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def _phi_plus_path(tmp_path):
    doc = {"dim": 4, "re": [[float(v) for v in row] for row in PHI_PLUS.real], "label": "phi-plus"}
    path = tmp_path / "phi_plus.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _batch_bell_values(rhos, angles):
    """Vectorized |B| for n (state, setting) pairs.

    Independent of the scalar evaluation path; the two are cross-checked on
    a subsample inside criterion 3.
    """
    t = np.einsum("ijkl,nlk->nij", _PAULI_KRON, rhos).real  # (n, 3, 3)
    phis, thetas = angles[:, 0::2], angles[:, 1::2]  # each (n, 4): a, d, b, c
    st = np.sin(thetas)
    dirs = np.stack([st * np.cos(phis), st * np.sin(phis), np.cos(thetas)], axis=-1)
    na, nd, nb, nc = dirs[:, 0], dirs[:, 1], dirs[:, 2], dirs[:, 3]
    ra = np.einsum("ni,nij->nj", na, t)
    rd = np.einsum("ni,nij->nj", nd, t)
    b = np.einsum("nj,nj->n", ra, nb + nc) + np.einsum("nj,nj->n", rd, nb - nc)
    return np.abs(b)


def test_criterion_1_tsirelson_attainment(tmp_path, capsys):
    path = _phi_plus_path(tmp_path)
    start = time.perf_counter()
    code = main(["bell-max", path, "--restarts", "8", "--seed", "7"])
    elapsed = time.perf_counter() - start
    rep = json.loads(capsys.readouterr().out)
    err = abs(rep["result"]["value"] - TWO_SQRT2)
    _verdict(
        1,
        "tsirelson attainment",
        code == 0 and err <= 1e-6 and elapsed < 1.0,
        f"|B|={rep['result']['value']:.9f} err={err:.2e} time={elapsed:.2f}s",
    )


def test_criterion_2_separable_bound():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(1000):
        rho = separable_sample(seed, 1 + seed % 5)
        rep = maximize_bell(rho, restarts=8, seed=seed)
        worst = max(worst, rep.value)
    elapsed = time.perf_counter() - start
    _verdict(
        2,
        "separable bound",
        worst <= 2.0 + 1e-6 and elapsed < 60.0,
        f"max |B|={worst:.9f} over 1000 seeds, time={elapsed:.1f}s",
    )


def test_criterion_3_universal_ceiling():
    start = time.perf_counter()
    n = 100_000
    rng = np.random.default_rng(20260810)
    g = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    rhos = np.einsum("nij,nkj->nik", g, g.conj())
    rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
    angles = rng.uniform(0.0, 2.0 * math.pi, (n, 8))
    values = _batch_bell_values(rhos, angles)
    worst_state = float(np.max(values))

    # tie the batch oracle to the scalar product path on a subsample
    gap = 0.0
    for idx in range(0, n, n // 300):
        rho = validate(rhos[idx])
        setting = BellSetting.from_flat(angles[idx])
        gap = max(gap, abs(values[idx] - abs(bell_number(rho, setting))))

    worst_obs = 0.0
    for k in range(10_000):
        f = ObservableMatrix(random_hermitian(rng, 4, scale=2.0))
        x = min_admissible_x(f) * (1.0 + rng.uniform(0.001, 3.0)) + 0.01
        a = rng.uniform(0.0, 2.0 * math.pi, 8)
        quad = UnitaryQuadruple(
            u1=EulerAngles(a[0], a[1]),
            u2=EulerAngles(a[2], a[3]),
            u3=EulerAngles(a[4], a[5]),
            u4=EulerAngles(a[6], a[7]),
        )
        worst_obs = max(worst_obs, appendix_bell_value(f, x, quad))
    elapsed = time.perf_counter() - start
    _verdict(
        3,
        "universal ceiling",
        worst_state <= TWO_SQRT2 + 1e-9
        and worst_obs <= TWO_SQRT2 + 1e-9
        and gap <= 1e-12
        and elapsed < 30.0,
        f"state max={worst_state:.9f}, observable max={worst_obs:.9f}, "
        f"path gap={gap:.1e}, time={elapsed:.1f}s",
    )


def test_criterion_4_subadditivity():
    start = time.perf_counter()
    worst = -math.inf
    for seed in range(10_000):
        rep = check_subadditivity(random_density(4, seed), BlockPartition(2, 2))
        worst = max(worst, -rep.slack_sub)
    for seed in range(10_000):
        rho = random_density(6, seed)
        for n, m in ((2, 3), (3, 2)):
            rep = check_subadditivity(rho, BlockPartition(n, m))
            worst = max(worst, -rep.slack_sub)

    eq_gap = 0.0
    for seed in range(1000):
        a = random_density(2, seed)
        b = random_density(2, seed + 50_000)
        prod = validate(np.kron(a.mat, b.mat))
        rep = check_subadditivity(prod, BlockPartition(2, 2))
        eq_gap = max(eq_gap, abs(rep.slack_sub))
    elapsed = time.perf_counter() - start
    _verdict(
        4,
        "subadditivity",
        worst <= 1e-9 and eq_gap <= 1e-9 and elapsed < 20.0,
        f"worst violation={worst:.2e}, product equality gap={eq_gap:.2e}, time={elapsed:.1f}s",
    )


def test_criterion_5_qutrit_inequalities():
    p = BlockPartition(2, 2)
    worst_sub = -math.inf
    worst_al = -math.inf
    for seed in range(10_000):
        rho4 = embed_qutrit(random_density(3, seed))
        rep = check_subadditivity(rho4, p)
        worst_sub = max(worst_sub, -rep.slack_sub)
        worst_al = max(worst_al, -rep.slack_al)

    rho = embed_qutrit(validate(np.diag([1 / 3, 1 / 3, 1 / 3])))
    rep = check_subadditivity(rho, p)
    side = math.log(3) - (2 / 3) * math.log(2)
    closed_form_ok = (
        abs(rep.s_joint - math.log(3)) <= 1e-12
        and abs(rep.s_first + rep.s_second - 2 * side) <= 1e-12
        and rep.subadditivity_holds
    )
    _verdict(
        5,
        "qutrit inequalities",
        worst_sub <= 1e-9 and worst_al <= 1e-9 and closed_form_ok,
        f"worst sub={worst_sub:.2e}, worst araki-lieb={worst_al:.2e}, "
        f"uniform case S={rep.s_joint:.12f} vs bound {2 * side:.12f}",
    )


def test_criterion_6_tomogram_contracts():
    rng = np.random.default_rng(606)
    worst_norm = 0.0
    worst_psi = 0.0
    for seed in range(1000):
        rho = random_density(4, seed)
        phi1, th1, phi2, th2 = rng.uniform(0.0, 2.0 * math.pi, 4)
        psi = rng.uniform(-10.0, 10.0, 4)
        w = joint_tomogram(rho, EulerAngles(phi1, th1, psi[0]), EulerAngles(phi2, th2, psi[1]))
        w2 = joint_tomogram(rho, EulerAngles(phi1, th1, psi[2]), EulerAngles(phi2, th2, psi[3]))
        worst_norm = max(worst_norm, abs(float(np.sum(w)) - 1.0))
        worst_psi = max(worst_psi, float(np.max(np.abs(w - w2))))
    _verdict(
        6,
        "tomogram contracts",
        worst_norm <= 1e-9 and worst_psi <= 1e-12,
        f"normalization drift={worst_norm:.2e}, residual-phase drift={worst_psi:.2e}",
    )


def test_criterion_7_relative_entropy_positivity():
    rng = np.random.default_rng(707)
    worst = math.inf
    for seed in range(10_000):
        a = EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, 2))
        b = EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, 2))
        w1 = joint_tomogram(random_density(4, seed), a, b)
        w2 = joint_tomogram(random_density(4, seed + 100_000), a, b)
        out = relative_entropy(w1, w2)
        if out is not DIVERGENT:
            worst = min(worst, out)
    _verdict(
        7,
        "relative entropy positivity",
        worst >= -1e-12,
        f"smallest divergence={worst:.3e} over 10000 pairs",
    )


def test_criterion_8_cross_form_consistency():
    rng = np.random.default_rng(808)
    worst_paths = 0.0
    for seed in range(10_000):
        rho = random_density(4, seed)
        s = BellSetting.from_flat(rng.uniform(0.0, 2.0 * math.pi, 8))
        worst_paths = max(
            worst_paths, abs(bell_number(rho, s) - bell_number_sign_form(rho, s))
        )

    worst_apx = 0.0
    for _ in range(10_000):
        f = ObservableMatrix(random_hermitian(rng, 4))
        x = min_admissible_x(f) * (1.0 + rng.uniform(0.01, 2.0)) + 0.05
        a = rng.uniform(0.0, 2.0 * math.pi, 8)
        quad = UnitaryQuadruple(
            u1=EulerAngles(a[0], a[1]),
            u2=EulerAngles(a[2], a[3]),
            u3=EulerAngles(a[4], a[5]),
            u4=EulerAngles(a[6], a[7]),
        )
        lhs = appendix_bell_value(f, x, quad)
        rhs = abs(bell_number(rho_of_x(f, x), quad.as_setting()))
        worst_apx = max(worst_apx, abs(lhs - rhs))
    _verdict(
        8,
        "cross-form consistency",
        worst_paths <= 1e-12 and worst_apx <= 1e-12,
        f"sign-form gap={worst_paths:.1e}, shifted-observable gap={worst_apx:.1e}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    path = _phi_plus_path(tmp_path)
    outputs = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "bell-max", path, "--restarts", "8", "--seed", "7"],
            capture_output=True,
            text=True,
            check=True,
        )
        rep = json.loads(proc.stdout)
        assert list(rep)[-1] == "wall_time_ms"
        del rep["wall_time_ms"]
        # byte-level comparison of everything before the timing field
        head, _, _ = proc.stdout.rpartition(', "wall_time_ms"')
        outputs.append(head)
    _verdict(
        9,
        "cli determinism",
        len(set(outputs)) == 1 and outputs[0] != "",
        "3 runs byte-identical modulo wall_time_ms",
    )
