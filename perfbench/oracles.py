"""Checks of `hypcone --format structured` reports against the generator.

Every expected value is computed here from the generated surface alone: cone
angles by the plain law of cosines, the rank 6g - 6 + 2n from the
construction, cone-angle gradients by finite differences of corner angles,
and the Delaunay result by replaying the reported flips on the input
triangulation.  Each `check_*` returns a list of problems; an empty list
means the report is correct.
"""

from __future__ import annotations

import math

import numpy as np

from surfaces import Surface, corner_angles, cone_angles, vertex_order

ANGLE_TOL = 1e-9      # cone angles and area against the input metric
HOLONOMY_TOL = 1e-8   # recovered lengths and the trace law
RADICAL_TOL = 1e-8    # the program's own radical residual
FD_RADICAL_TOL = 1e-6  # P times finite-difference cone-angle gradients
JACOBI_TOL = 1e-5
PSI_TOL = 1e-10
FD_STEP = 1e-5


def parse(text: str) -> dict:
    """key=value rows of a structured report."""
    return dict(line.split("=", 1) for line in text.splitlines())


class Expected:
    """What a correct report on `surface` must say, derived from the input."""

    def __init__(self, surface: Surface):
        self.surface = surface
        self.angles = corner_angles(surface.sides, surface.lengths)
        self.theta = cone_angles(surface.corners, self.angles)
        self.order = vertex_order(surface.corners)
        n, g = len(self.theta), surface.genus
        self.area = 2.0 * math.pi * (2 * g - 2 + n) - sum(self.theta.values())
        self.rank = 6 * g - 6 + 2 * n


def _close(problems, key, got, want, tol):
    if not abs(got - want) <= tol:
        problems.append(f"{key}: {got!r} differs from {want!r} by more than {tol}")


def check_validate(exp: Expected, rows: dict) -> list:
    s = exp.surface
    problems = []
    for key, want in (("valid", "true"), ("genus", str(s.genus)),
                      ("vertices", str(len(exp.theta))),
                      ("edges", str(s.n_edges)), ("triangles", str(len(s.sides)))):
        if rows.get(key) != want:
            problems.append(f"{key}: {rows.get(key)!r}, expected {want!r}")
    for i, v in enumerate(exp.order):
        _close(problems, f"theta.{i}", float(rows.get(f"theta.{i}", "nan")),
               exp.theta[v], ANGLE_TOL)
    _close(problems, "area", float(rows.get("area", "nan")), exp.area, ANGLE_TOL)
    return problems


def check_holonomy(exp: Expected, rows: dict) -> list:
    problems = []
    for e, length in exp.surface.lengths.items():
        _close(problems, f"alength.{e}", float(rows.get(f"alength.{e}", "nan")),
               length, HOLONOMY_TOL)
    for i, v in enumerate(exp.order):
        want = 2.0 * abs(math.cos(exp.theta[v] / 2.0))
        _close(problems, f"trace.{i}", abs(float(rows.get(f"trace.{i}", "nan"))),
               want, HOLONOMY_TOL)
    return problems


def angle_gradients_fd(exp: Expected, edge_ids) -> np.ndarray:
    """d(theta_v)/d(a_e) by central differences of the corner angles of the
    triangles next to e, rows in the program's vertex order."""
    s = exp.surface
    row = {v: i for i, v in enumerate(exp.order)}
    col = {e: j for j, e in enumerate(edge_ids)}
    touching: dict = {}
    for t, tri in enumerate(s.sides):
        for e, _ in tri:
            touching.setdefault(e, set()).add(t)
    grads = np.zeros((len(exp.order), len(edge_ids)))
    for e, tris in touching.items():
        tris = sorted(tris)
        sides = [s.sides[t] for t in tris]
        up = corner_angles(sides, {**s.lengths, e: s.lengths[e] + FD_STEP})
        down = corner_angles(sides, {**s.lengths, e: s.lengths[e] - FD_STEP})
        slope = (up - down) / (2.0 * FD_STEP)
        for t, d in zip(tris, slope):
            for v, dv in zip(s.corners[t], d):
                grads[row[v], col[e]] += dv
    return grads


def check_poisson(exp: Expected, rows: dict) -> list:
    problems = []
    ids = sorted(exp.surface.lengths)
    try:
        p = np.array([[float(x) for x in rows[f"P.{e}"].split()] for e in ids])
    except (KeyError, ValueError) as exc:
        return [f"P rows unreadable: {exc}"]
    if p.shape != (len(ids), len(ids)):
        return [f"P has shape {p.shape}, expected {len(ids)} square"]
    if not np.array_equal(p, -p.T):
        problems.append("P is not exactly antisymmetric")
    sv = np.linalg.svd(p, compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0])) if sv.size else 0
    for key, got in (("rank of P", rank), ("rank", rows.get("rank")),
                     ("rank_expected", rows.get("rank_expected"))):
        if str(got) != str(exp.rank):
            problems.append(f"{key}: {got}, expected 6g-6+2n = {exp.rank}")
    grads = angle_gradients_fd(exp, ids)
    scale = float(np.max(np.abs(p)))
    for i, g in enumerate(grads):
        res = float(np.max(np.abs(p @ g))) / (scale * float(np.max(np.abs(g))) + 1.0)
        if not res <= FD_RADICAL_TOL:
            problems.append(f"P grad theta_{i} = {res} by finite differences")
    if not float(rows.get("radical_max", "nan")) < RADICAL_TOL:
        problems.append(f"radical_max {rows.get('radical_max')}")
    if not float(rows.get("jacobi", "nan")) < JACOBI_TOL:
        problems.append(f"jacobi {rows.get('jacobi')}")
    return problems


def replay_flips(surface: Surface, moves):
    """Apply (edge, pre, post) flips to the input triangulation.

    Returns (sides, corners, lengths) after the last flip.  Each flip of e
    replaces the triangles (p, q, x) and (q, p, y) on either side of e = pq
    by (x, y, q) and (y, x, p), with e now running from x to y.  Raises
    ValueError if a move does not fit the triangulation it is applied to.
    """
    sides = [list(t) for t in surface.sides]
    corners = [list(c) for c in surface.corners]
    lengths = dict(surface.lengths)
    for e, pre, post in moves:
        if lengths.get(e) != pre:
            raise ValueError(f"flip {e}: pre length {pre!r}, replay has {lengths.get(e)!r}")
        at = {d: (t, k) for t, tri in enumerate(sides)
              for k, (f, d) in enumerate(tri) if f == e}
        (tf, kf), (tb, kb) = at["+"], at["-"]
        if tf == tb:
            raise ValueError(f"flip {e}: both sides in triangle {tf}")
        p, q, x = (corners[tf][(kf + i) % 3] for i in range(3))
        y = corners[tb][(kb + 2) % 3]
        q_x, x_p = sides[tf][(kf + 1) % 3], sides[tf][(kf + 2) % 3]
        p_y, y_q = sides[tb][(kb + 1) % 3], sides[tb][(kb + 2) % 3]
        sides[tf], corners[tf] = [(e, "+"), y_q, q_x], [x, y, q]
        sides[tb], corners[tb] = [(e, "-"), x_p, p_y], [y, x, p]
        lengths[e] = post
    return sides, corners, lengths


def check_delaunay(exp: Expected, rows: dict) -> list:
    problems = []
    n_moves = sum(key.startswith("move.") for key in rows)
    if rows.get("flips") != str(n_moves):
        return [f"flips={rows.get('flips')} with {n_moves} move rows"]
    moves = []
    for k in range(n_moves):
        f = rows.get(f"move.{k}", "").split()
        if len(f) != 8 or f[0] != "flip":
            return [f"move.{k} unreadable: {rows.get(f'move.{k}')!r}"]
        moves.append((f[1], float(f[3]), float(f[5])))
    try:
        sides, corners, lengths = replay_flips(exp.surface, moves)
    except ValueError as exc:
        return [str(exc)]
    for e, length in lengths.items():
        if float(rows.get(f"length.{e}", "nan")) != length:
            problems.append(f"length.{e}={rows.get(f'length.{e}')}, replay has {length!r}")
    try:
        angles = corner_angles(sides, lengths)
    except ValueError as exc:
        return problems + [f"after the flips: {exc}"]
    opposite: dict = {}
    for tri, angs in zip(sides, angles.tolist()):
        for k, (e, _) in enumerate(tri):
            opposite[e] = opposite.get(e, 0.0) + angs[(k + 2) % 3]
    for e, opp in opposite.items():
        psi = math.pi - opp
        if not psi >= -PSI_TOL:
            problems.append(f"psi0({e}) = {psi} after the flips")
        _close(problems, f"psi.{e}", float(rows.get(f"psi.{e}", "nan")), psi, ANGLE_TOL)
    theta = cone_angles(corners, angles)
    for v, want in exp.theta.items():
        _close(problems, f"cone angle at vertex {v}", theta.get(v, math.nan), want,
               ANGLE_TOL)
    _close(problems, "area", float(np.sum(math.pi - angles.sum(axis=1))),
           float(np.sum(math.pi - exp.angles.sum(axis=1))), ANGLE_TOL)
    return problems


def check_selftest(rows: dict) -> list:
    return [] if rows.get("pass") == "true" else [f"pass={rows.get('pass')}"]


def check(sub: str, exp: Expected | None, code: int, text: str) -> list:
    """All problems with one report: a nonzero exit and every oracle failure."""
    problems = [] if code == 0 else [f"exit code {code}"]
    try:
        rows = parse(text)
        if sub == "selftest":
            return problems + check_selftest(rows)
        checker = {"validate": check_validate, "holonomy": check_holonomy,
                   "poisson": check_poisson, "delaunay": check_delaunay}[sub]
        return problems + checker(exp, rows)
    except ValueError as exc:
        return problems + [f"unreadable report: {exc}"]
