import math

import numpy as np
import pytest

from hypcone.errors import NotElliptic, OutOfRange
from hypcone.se2 import Se2Element, se2_pair_distance, triple_orientation


def test_rotation_about_fixes_center():
    s = Se2Element.rotation_about([2.0, -1.0], 0.8)
    assert np.allclose(s.apply([2.0, -1.0]), [2.0, -1.0])
    assert np.allclose(s.fixed_point(), [2.0, -1.0])


def test_quarter_turn():
    s = Se2Element.rotation_about([0.0, 0.0], math.pi / 2)
    assert np.allclose(s.apply([1.0, 0.0]), [0.0, 1.0], atol=1e-15)


def test_compose_and_inverse():
    a = Se2Element(0.7, [1.0, 2.0])
    b = Se2Element(-1.1, [0.5, -0.25])
    x = np.array([0.3, 0.4])
    assert np.allclose(a.compose(b).apply(x), a.apply(b.apply(x)))
    assert np.allclose(a.compose(a.inverse()).apply(x), x)


def test_translation_has_no_fixed_point():
    with pytest.raises(NotElliptic):
        Se2Element.translation([1.0, 0.0]).fixed_point()
    with pytest.raises(NotElliptic):
        Se2Element(2 * math.pi, [1.0, 0.0]).fixed_point()


def test_pair_distance_is_center_distance():
    s1 = Se2Element.rotation_about([0.0, 0.0], 1.0)
    s2 = Se2Element.rotation_about([3.0, 4.0], 2.5)
    assert se2_pair_distance(s1, s2) == pytest.approx(5.0)


def test_orientation_signs():
    assert triple_orientation([0, 0], [1, 0], [0, 1]) == 1
    assert triple_orientation([0, 0], [0, 1], [1, 0]) == -1
    assert triple_orientation([0, 0], [1, 0], [2, 0]) == 0


def test_orientation_invariance():
    rng = np.random.default_rng(21)
    for _ in range(100):
        pts = [rng.uniform(-3, 3, size=2) for _ in range(3)]
        got = triple_orientation(*pts)
        g = Se2Element(float(rng.uniform(-3, 3)), rng.uniform(-2, 2, size=2))
        assert triple_orientation(*(g.apply(p) for p in pts)) == got


class RefSe2:
    """The array-based element x -> R(angle) x + w (reference)."""

    def __init__(self, angle, w):
        if not math.isfinite(angle):
            raise OutOfRange("angle must be finite")
        w = np.asarray(w, dtype=float)
        if w.shape != (2,):
            raise ValueError("translation part must be a 2-vector")
        c, s = math.cos(angle), math.sin(angle)
        self.angle = float(angle)
        self.rot = np.array([[c, -s], [s, c]])
        self.w = w.copy()

    def apply(self, x):
        return self.rot @ np.asarray(x, dtype=float) + self.w

    def compose(self, other):
        return RefSe2(self.angle + other.angle, self.rot @ other.w + self.w)

    def inverse(self):
        return RefSe2(-self.angle, -(self.rot.T @ self.w))

    def fixed_point(self):
        return np.linalg.solve(np.eye(2) - self.rot, self.w)


def close(got, want, rel=1e-14):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want))) <= rel * float(np.max(np.abs(want)))


def test_float_layer_matches_reference():
    rng = np.random.default_rng(22)
    for _ in range(500):
        angle = float(rng.uniform(0.1, 2 * math.pi - 0.1)) * (1 if rng.uniform() < 0.5 else -1)
        w = rng.uniform(-3, 3, size=2)
        g, ref = Se2Element(angle, w), RefSe2(angle, w)
        h = Se2Element(float(rng.uniform(-3, 3)), rng.uniform(-2, 2, size=2))
        ref_h = RefSe2(h.angle, h.w)
        x = rng.uniform(-3, 3, size=2)
        assert g.rot.tobytes() == ref.rot.tobytes()
        assert close(g.apply(x), ref.apply(x))
        assert close(g.compose(h).w, ref.compose(ref_h).w)
        assert close(g.inverse().w, ref.inverse().w)
        assert close(g.fixed_point(), ref.fixed_point())
        center = rng.uniform(-5, 5, size=2)
        want = RefSe2(angle, center - ref.rot @ center)
        assert close(Se2Element.rotation_about(center, angle).w, want.w)


def test_rot_and_w_are_read_only_copies():
    g = Se2Element(0.7, [1.0, 2.0])
    ref = RefSe2(0.7, [1.0, 2.0])
    for arr, want in ((g.rot, ref.rot), (g.w, ref.w)):
        assert arr.shape == want.shape
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 5.0


@pytest.mark.parametrize("angle, w", [
    (math.nan, [1.0, 0.0]),
    (math.inf, [1.0, 0.0, 2.0]),
    (0.5, [1.0, 0.0, 2.0]),
    (0.5, [[1.0, 0.0]]),
    (0.5, "ab"),
])
def test_bad_input_matches_reference(angle, w):
    with pytest.raises(Exception) as want:
        RefSe2(angle, w)
    with pytest.raises(want.type) as got:
        Se2Element(angle, w)
    assert str(got.value) == str(want.value)


def test_operations_make_no_numpy_call(monkeypatch):
    import hypcone.se2 as se2_mod
    import hypcone.sl2 as sl2_mod

    monkeypatch.setattr(se2_mod, "np", None)  # any numpy call raises
    monkeypatch.setattr(sl2_mod, "np", None)
    g = Se2Element.rotation_about((1.0, 2.0), 0.7)
    h = g.compose(g.inverse()).compose(Se2Element.rotation_about([-1.0, 0.5], 2.0))
    h.apply(g.apply((0.3, 0.4)))
    se2_pair_distance(g, h)
    triple_orientation(g.fixed_point(), h.fixed_point(), (0.0, 0.0))
