"""End-to-end certification of the seven headline properties.

Each test prints one PASS/FAIL line (visible with -s, or in the failure
report) and asserts the stated tolerance, so the suite stays honest under
plain pytest.  Checks that carry a runtime budget time themselves.
"""
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (
    genus1_two_cone_surface,
    jacobi_table,
    killing_constant,
    sphere3_surface,
    svd_rank,
    tetra_surface,
    torus_surface,
)
from hypcone import (
    angle_gradients,
    bivector_rank,
    cone_angles,
    develop,
    edge_invariants,
    eta_matrix,
    flip,
    flip_coordinate_jacobian,
    holonomy_report,
    jacobi_residual,
    make_delaunay,
    radical_residuals,
    serialize_surface,
    trace_form,
)
from hypcone.cli import TOL_DEFAULTS
from hypcone.errors import TriangleInequality, UnflippableConfiguration, WallAngle
from hypcone.selftest import run_all
from hypcone.sl2 import E_VEC, F_VEC, H_VEC


def _report(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _corpus():
    # one-vertex torus in two shapes, g=0 n=3, g=0 n=4 in two shapes,
    # g=1 n=2 in two shapes
    return {
        "torus": torus_surface(),
        "skew_torus": torus_surface(1.0, 1.3, 1.7),
        "sphere3": sphere3_surface(),
        "tetra": tetra_surface(),
        "skew_tetra": tetra_surface({"ab": 1.1, "ac": 1.3, "ad": 1.2,
                                     "bc": 1.25, "bd": 1.35, "cd": 1.15}),
        "g1n2": genus1_two_cone_surface(),
        "skew_g1n2": genus1_two_cone_surface(h=1.55, w=1.7, s0=0.95,
                                             s1=1.05, s2=1.0, s3=1.1),
    }


def test_lemma_suite():
    # all three trigonometric identity suites on >= 500 random
    # configurations each at 1e-9, the log-expansion suite on 200 pairs
    # at 1e-6, inside a 5 s budget
    t0 = time.perf_counter()
    rows = run_all()
    elapsed = time.perf_counter() - t0
    worst_trig = 0.0
    worst_log = 0.0
    for name, count, residual, key in rows:
        tol = TOL_DEFAULTS[key]
        if name == "log-expansion":
            assert count >= 200 and tol == 1e-6
            worst_log = max(worst_log, residual)
        else:
            assert count >= 500 and tol == 1e-9
            worst_trig = max(worst_trig, residual)
        assert residual < tol, f"{name}: {residual} >= {tol}"
    ok = worst_trig < 1e-9 and worst_log < 1e-6 and elapsed < 5.0
    _report("lemma suite", ok,
            f"{len(rows) - 1} trig suites x 500 cfgs (max residual "
            f"{worst_trig:.2e} < 1e-09), log suite x 200 pairs "
            f"({worst_log:.2e} < 1e-06), {elapsed:.2f} s < 5 s")


def test_basis_pairings():
    # the (H, E+F, E-F) values of the trace form, exactly; the Killing
    # form is a constant multiple with |c| = 4, sign +
    exact = (
        trace_form(H_VEC, H_VEC) == 2.0,
        trace_form(E_VEC + F_VEC, E_VEC + F_VEC) == 2.0,
        trace_form(E_VEC - F_VEC, E_VEC - F_VEC) == -2.0,
    )
    c = killing_constant()
    ok = all(exact) and abs(abs(c) - 4.0) < 1e-10 and c > 0
    _report("basis pairings", ok,
            f"B(H,H)=2, B(E+F,E+F)=2, B(E-F,E-F)=-2 exact; Killing = "
            f"c*B with c = {c:+.12f} (|c| within {abs(abs(c) - 4.0):.1e} "
            f"of 4, sign +)")


def test_holonomy_certification():
    # trace law at every vertex and edge-length recovery from elliptic
    # fixed points on every edge, across the whole corpus, within 10 s
    t0 = time.perf_counter()
    vmax = emax = 0.0
    nv = ne = 0
    for name, s in _corpus().items():
        _, trace_errors, _, length_errors, _ = holonomy_report(develop(s))
        vmax = max(vmax, trace_errors.max())
        emax = max(emax, length_errors.max())
        nv += len(trace_errors)
        ne += len(length_errors)
    elapsed = time.perf_counter() - t0
    ok = vmax < 1e-8 and emax < 1e-8 and elapsed < 10.0
    _report("holonomy certification", ok,
            f"7 surfaces: vertex trace error {vmax:.1e} < 1e-8 over {nv} "
            f"vertices, length recovery {emax:.1e} < 1e-8 over {ne} edges, "
            f"{elapsed:.2f} s < 10 s")


def test_bivector_structure():
    # antisymmetry (bitwise), cone-angle gradients in the radical, rank
    # 6g-6+2n, Jacobi identity with the chain-rule derivative of the
    # bivector, and detection of a random antisymmetric fault of size 0.1 --
    # all inside 60 s
    t0 = time.perf_counter()
    rad_max = jac_max = 0.0
    fault_min = math.inf
    rng = np.random.default_rng(1729)
    # fault injection is checked away from symmetric length assignments:
    # at an equilateral point the first-order Jacobi defect of a constant
    # perturbation cancels, and on a 3-cone sphere the bivector field is
    # identically zero so a constant stays a genuine Poisson structure
    fault_surfaces = {"skew_torus", "tetra", "skew_tetra", "g1n2", "skew_g1n2"}
    for name, s in _corpus().items():
        p = eta_matrix(s)
        assert np.array_equal(p, -p.T), f"{name}: not exactly antisymmetric"
        grads = angle_gradients(s)
        res = radical_residuals(jacobi_table(s, p), grads)
        rad_max = max(rad_max, float(np.max(res)))
        want_rank = 6 * s.genus - 6 + 2 * s.n_vertices
        assert bivector_rank(p, grads)[0] == want_rank == svd_rank(p), f"{name}: rank"
        jac_max = max(jac_max, jacobi_residual(s)[0])
        if name in fault_surfaces:
            raw = rng.normal(size=p.shape)
            q = raw - raw.T
            q *= 0.1 / np.max(np.abs(q))
            fault_min = min(fault_min, jacobi_residual(s, p=p + q)[0])
    elapsed = time.perf_counter() - t0
    ok = (rad_max < 1e-8 and jac_max < 1e-5 and fault_min > 1e-2
          and elapsed < 60.0)
    _report("bivector structure", ok,
            f"7 surfaces: antisymmetry exact, radical residual {rad_max:.1e} "
            f"< 1e-8, ranks = 6g-6+2n, analytic Jacobi {jac_max:.1e} < 1e-5, fault "
            f"residual {fault_min:.1e} > 1e-2 on 5 skew surfaces, "
            f"{elapsed:.1f} s < 60 s")


def test_wall_scaling():
    # approach a cone angle of 2*pi at fixed scale: the largest bivector
    # entry grows like 1/|sin(theta/2)| (log-log slope -1 +/- 0.1), and
    # inside the 1e-6 guard evaluation is refused.  The family: the
    # second cone angle of the two-cone genus-1 surface crosses the wall
    # as the h-curve length passes ~1.4176
    def second_angle(h):
        return cone_angles(genus1_two_cone_surface(h=h)).theta[1]

    lo, hi = 1.4, 1.6
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if second_angle(mid) < 2.0 * math.pi:
            lo = mid
        else:
            hi = mid
    hstar = 0.5 * (lo + hi)

    xs, ys = [], []
    for dh in (0.05, 0.03, 0.02, 0.012, 0.008, 0.005, 0.003, 0.002):
        s = genus1_two_cone_surface(h=hstar - dh)
        margin = abs(math.sin(second_angle(hstar - dh) / 2.0))
        assert margin > 1e-5  # stays outside the guard
        xs.append(math.log(margin))
        ys.append(math.log(float(np.max(np.abs(eta_matrix(s))))))
    slope = float(np.polyfit(xs, ys, 1)[0])

    with pytest.raises(WallAngle):
        eta_matrix(torus_surface(1e-3))  # |sin(theta/2)| ~ 4.3e-7
    ok = abs(slope + 1.0) <= 0.1
    _report("wall scaling", ok,
            f"log-log slope {slope:+.4f} within -1 +/- 0.1 over margins "
            f"{math.exp(xs[0]):.1e}..{math.exp(xs[-1]):.1e}; evaluation "
            f"refused at margin 4.3e-7 inside the 1e-6 guard")


def test_delaunay_flattening():
    # the flip algorithm terminates on the corpus plus 100 randomized
    # length assignments, ends with min psi0 >= -1e-10, preserves cone
    # angles and area to 1e-9, and the bivector transports across a flip
    # along the numerical Jacobian of the coordinate change to 1e-4
    runs = list(_corpus().values())
    rng = np.random.default_rng(20260814)

    def random_surface(k):
        if k % 3 == 0:
            return torus_surface(*(float(x) for x in rng.uniform(1.0, 2.0, 3)))
        if k % 3 == 1:
            # force a non-Delaunay start: past acosh(cosh a cosh b) the
            # third edge is obtuse-opposite, below a+b it stays a triangle
            a, b = (float(x) for x in rng.uniform(1.0, 2.0, 2))
            lo = math.acosh(math.cosh(a) * math.cosh(b))
            c = lo + (a + b - lo) * float(rng.uniform(0.05, 0.7))
            return torus_surface(a, b, c)
        # tetra with one stretched edge; redraw on a triangle violation
        for _ in range(50):
            try:
                lengths = {e: float(rng.uniform(1.0, 2.0))
                           for e in ("ab", "ac", "ad", "bc", "bd", "cd")}
                stretch = ("ab", "ac", "ad", "bc", "bd", "cd")[k % 6]
                lengths[stretch] *= float(rng.uniform(1.3, 1.45))
                return tetra_surface(lengths)
            except TriangleInequality:
                continue
        raise AssertionError("could not draw a valid length assignment")

    runs.extend(random_surface(k) for k in range(100))
    worst_psi = math.inf
    metric_err = 0.0
    total_flips = 0
    for s in runs:
        final, moves = make_delaunay(s)
        total_flips += len(moves)
        worst_psi = min(worst_psi, min(edge_invariants(final).values()))
        metric_err = max(
            metric_err,
            float(np.max(np.abs(np.sort(final.cone_angle)
                                - np.sort(s.cone_angle)))),
            abs(final.area() - s.area()))

    transport_err = 0.0
    checked = 0
    for s in (torus_surface(1.0, 1.0, 1.9), torus_surface(1.3, 1.1, 2.0)):
        p_pre = eta_matrix(s)
        for e in s.edge_ids:
            try:
                flipped, _ = flip(s, e)
            except UnflippableConfiguration:
                continue
            j = flip_coordinate_jacobian(s, e)
            p_post = eta_matrix(flipped)
            err = float(np.max(np.abs(j @ p_pre @ j.T - p_post)))
            transport_err = max(
                transport_err, err / max(1.0, float(np.max(np.abs(p_post)))))
            checked += 1
    ok = (worst_psi >= -1e-10 and metric_err < 1e-9 and total_flips >= 30
          and transport_err <= 1e-4 and checked >= 6)
    _report("delaunay flattening", ok,
            f"{len(runs)} runs / {total_flips} flips terminated with min "
            f"psi0 {worst_psi:.2e} >= -1e-10, angles+area preserved to "
            f"{metric_err:.1e} < 1e-9; bivector transport {transport_err:.1e} "
            f"<= 1e-4 across {checked} flips")


def test_cli_determinism(tmp_path):
    # byte-identical stdout for repeated invocations, in both output formats
    torus_file = tmp_path / "torus.json"
    torus_file.write_text(serialize_surface(torus_surface(1.0, 1.3, 1.7)))
    demo_file = tmp_path / "demo.json"
    demo_file.write_text(serialize_surface(torus_surface(1.0, 1.0, 1.9)))
    invocations = [
        ("validate", "--input", str(torus_file)),
        ("poisson", "--input", str(torus_file)),
        ("poisson", "--input", str(torus_file), "--format", "structured"),
        ("holonomy", "--input", str(torus_file)),
        ("delaunay", "--input", str(demo_file)),
        ("selftest",),
    ]
    checked = 0
    for args in invocations:
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "hypcone.cli", *args],
                capture_output=True, timeout=120)
            assert proc.returncode == 0, (args, proc.stderr[:200])
            outs.append(proc.stdout)
        assert outs[0] == outs[1], f"stdout differs for {args}"
        assert outs[0], f"empty report for {args}"
        checked += 1
    _report("cli determinism", checked == len(invocations),
            f"{checked} invocations (validate/poisson/holonomy/delaunay/"
            f"selftest, structured variant) byte-identical "
            f"across repeated runs")
