import collections
import math
import warnings

import numpy as np
import pytest

from dirichletlab import gram, powers, quad
from dirichletlab.errors import ValidationError
from dirichletlab.geometry import profile_make
from dirichletlab.quad import _gl
from dirichletlab.seqs import dyadic

from cusp_oracles import cusp_moment
from reference_routes import AccuracyWarning, cusp_area, doubling, integrate_rect

DELTA = 1.0 / 200.0


def test_gauss_low_order_classics():
    s1, w1 = _gl(1)
    assert s1[0] == 0.5
    assert w1[0] == 1.0
    s2, w2 = _gl(2)
    assert np.allclose(s2, [0.5 - 0.5 / math.sqrt(3.0),
                            0.5 + 0.5 / math.sqrt(3.0)], rtol=0.0, atol=1e-15)
    assert np.allclose(w2, [0.5, 0.5], rtol=0.0, atol=1e-15)


def test_gauss_weights_sum_to_one():
    for m in (1, 3, 8, 32, 100):
        s, w = _gl(m)
        assert math.isclose(float(np.sum(w)), 1.0, rel_tol=1e-14)
        assert np.all((s > 0.0) & (s < 1.0))


def test_gauss_monomial_exactness():
    # degree 30 with 16 points: 2m - 1 = 31 covers it
    s, w = _gl(16)
    val = float(w @ s**30)
    assert math.isclose(val, 1.0 / 31.0, rel_tol=1e-12)
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(2, 24))
        k = int(rng.integers(0, 2 * m))     # k <= 2m - 1
        s, w = _gl(m)
        assert abs(float(w @ s**k) - 1.0 / (k + 1)) < 1e-12


def test_gauss_validates_order():
    with pytest.raises(ValidationError):
        _gl(0)
    with pytest.raises(ValidationError):
        _gl(2.5)


def test_rect_integral_polynomials():
    one = integrate_rect(lambda z: np.ones_like(z.real), (0.0, 1.0, 0.0, 1.0), 4)
    assert math.isclose(one.real, 1.0, rel_tol=1e-14)
    xy = integrate_rect(lambda z: z.real * z.imag, (0.0, 1.0, 0.0, 1.0), 4)
    assert math.isclose(xy.real, 0.25, rel_tol=1e-13)
    zero = integrate_rect(lambda z: z, (0.5, 0.5, 0.0, 1.0), 4)
    assert zero == 0.0


def test_rect_integral_adaptive_sharp_exponential():
    # int_0^3 e^{-2px} dx * 1 for p = 100: the order-16 rule is far off,
    # order doubling settles below the cap without a warning
    p = 100.0
    exact = (1.0 - math.exp(-6.0 * p)) / (2.0 * p)

    def f(z):
        return np.exp(-2.0 * p * z.real)

    rough = integrate_rect(f, (0.0, 3.0, 0.0, 1.0), 16)
    assert abs(rough.real - exact) > 1e-3 * exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = integrate_rect(f, (0.0, 3.0, 0.0, 1.0), 16, tol=1e-12)
    assert math.isclose(val.real, exact, rel_tol=1e-10)
    assert abs(val.imag) < 1e-18


def test_rect_integral_order_cap():
    # an integrand that never settles at tol 1e-12: order doubling stops at
    # ORDER_CAP after the orders 8, 16, ..., 512, with one warning
    rng = np.random.default_rng(0)
    calls = []

    def noisy(z):
        calls.append(z.shape)
        return 1.0 + 1e-6 * rng.standard_normal(z.shape)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val = integrate_rect(noisy, (0.0, 1.0, 0.0, 1.0), 8, tol=1e-12)
    assert [w.category for w in caught] == [AccuracyWarning]
    assert len(calls) <= 7
    assert calls[-1] == (quad.ORDER_CAP, quad.ORDER_CAP)
    assert math.isclose(val.real, 1.0, rel_tol=1e-5)


def test_disk_integral_oracles():
    c = 0.3 + 0.1j
    r = 0.25
    pts, wts = gram._disk_rule(8)
    w = c + r * pts
    one = r * r * np.sum(wts)
    assert math.isclose(one, r * r, rel_tol=1e-13)
    cent = r * r * (wts @ (w - c))
    assert abs(cent) < 1e-15
    sq = r * r * (wts @ np.abs(w - c) ** 2)
    assert math.isclose(sq, r**4 / 2.0, rel_tol=1e-12)


def test_cusp_moment_low_orders():
    prof = profile_make(dyadic(4), DELTA)
    m00 = cusp_moment(prof, 0, 0)
    assert math.isclose(m00.real, cusp_area(prof), rel_tol=1e-12)
    assert abs(m00.imag) <= 1e-14 * m00.real
    # hermitian symmetry in the indices
    a = cusp_moment(prof, 1, 2)
    b = cusp_moment(prof, 2, 1)
    assert abs(a - np.conj(b)) <= 1e-12 * abs(a)
    # the domain is symmetric in y, so every moment is real
    assert abs(a.imag) <= 1e-12 * abs(a)


def test_cusp_moment_validates_degrees():
    prof = profile_make(dyadic(2), DELTA)
    with pytest.raises(ValidationError):
        cusp_moment(prof, -1, 0)
    with pytest.raises(ValidationError):
        cusp_moment(prof, 0, 401)


# -- node cache --------------------------------------------------------------


def test_cached_nodes_are_read_only():
    for a in _gl(8):
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_jensen_loop_builds_each_rule_once(monkeypatch):
    calls = collections.Counter()
    leggauss = np.polynomial.legendre.leggauss

    def counting(deg):
        calls[deg] += 1
        return leggauss(deg)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    quad._gl.cache_clear()
    prof = profile_make(dyadic(8), DELTA)
    for p in range(1, 65):
        powers.jensen_lower(prof, p)
    # each moment is summed once per profile, at its exact order q + 1:
    # 1 and 2 for the Jensen bound, p for the norm
    assert calls == {m: 1 for m in range(1, 65)}
    # the cache holds every order a moment loop asks for: a second
    # profile rebuilds none of them, and a second pass reads the moments
    # from each profile's memo
    calls.clear()
    quad._gl.cache_clear()
    profiles = (prof, profile_make(dyadic(20), DELTA))
    for _ in range(2):
        for profile in profiles:
            for q in range(128):
                powers.region_moment(profile, q)
    assert calls == {m: 1 for m in range(1, 129)}


# -- order-doubling verifier -------------------------------------------------


def _recording(fn):
    orders = []

    def value(k):
        orders.append(k)
        return fn(k)

    return value, orders


def test_doubling_never_settles_stops_at_cap():
    value, orders = _recording(lambda k: 1.0 / k)
    with pytest.warns(AccuracyWarning) as caught:
        d = doubling(value, 8, 1e-8)
    assert len(caught) == 1
    assert orders == [8, 16, 32, 64, 128, 256, 512]
    assert max(orders) == quad.ORDER_CAP
    assert d.value == d.check == 1.0 / 512
    assert d.order == 512
    assert d.residual == pytest.approx(1.0)     # |1/512 - 1/256| / (1/512)


def test_doubling_settles_one_doubling_late():
    # the value doubles between orders 8 and 16, then moves by 1e-12
    # relative: the order-16 value is confirmed by order 32
    base = np.array([1.0, -3.0])
    scale = {8: 1.0, 16: 2.0}
    value, orders = _recording(lambda k: base * scale.get(k, 2.0 + 2e-12))
    d = doubling(value, 8, 1e-8)
    assert orders == [8, 16, 32]
    assert d.order == 16
    assert d.value.tolist() == (2.0 * base).tolist()
    assert d.check.tolist() == ((2.0 + 2e-12) * base).tolist()
    assert d.residual == pytest.approx(1e-12, rel=1e-3)


def test_doubling_start_above_half_cap_checks_at_cap():
    # one doubling would pass the cap, so the start value is checked
    # against order ORDER_CAP instead of coming back unverified
    value, orders = _recording(lambda k: 3.0 + 0.0j)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        d = doubling(value, quad.ORDER_CAP // 2 + 1, 1e-8)
    assert orders == [quad.ORDER_CAP // 2 + 1, quad.ORDER_CAP]
    assert d == (3.0 + 0.0j, 3.0 + 0.0j, quad.ORDER_CAP // 2 + 1, 0.0)


def test_doubling_start_at_cap_evaluates_once():
    value, orders = _recording(lambda k: 3.0 + 0.0j)
    with pytest.warns(AccuracyWarning) as caught:
        d = doubling(value, quad.ORDER_CAP, 1e-8)
    assert len(caught) == 1
    assert orders == [quad.ORDER_CAP]
    assert d == (3.0 + 0.0j, 3.0 + 0.0j, quad.ORDER_CAP, None)


def test_doubling_validates_start_order():
    for order in (0, quad.ORDER_CAP + 1):
        with pytest.raises(ValidationError):
            doubling(lambda k: 1.0, order, 1e-8)
