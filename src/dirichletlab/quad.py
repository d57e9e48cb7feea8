"""Quadrature engines.

Gauss-Legendre rules, tensor rules on rectangles and the order-doubling
verifier, which only the witnesses ``gram.build_gram`` and
``integrate_rect(..., tol)`` run.  ``_gl`` also feeds the cusp edge rule
(``CuspProfile.edge_points``) and the Gram witness's polar disk rule
(``gram._disk_rule``); no 2-D grid covers the cusp.
"""

from __future__ import annotations

import collections
import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, ValidationError

ORDER_CAP = 512
DOUBLING_RTOL = 1e-8    # Gram entries


Doubling = collections.namedtuple("Doubling", "value check order residual")


def doubling(value, order: int, rtol: float) -> Doubling:
    """Verify ``value(order)`` by order doubling: double k until value(k)
    and value(k') (scalars or arrays) agree to ``rtol`` in the largest
    relative difference, and return (value(k), value(k'), k, residual),
    where k' = min(2k, ORDER_CAP).  No order above ORDER_CAP is evaluated;
    when the value at ORDER_CAP is not confirmed, it comes back unverified
    (check = value, the last residual or None) with one AccuracyWarning."""
    if not (1 <= order <= ORDER_CAP):
        raise ValidationError(f"order {order} must lie in 1..{ORDER_CAP}")
    val, residual = value(order), None
    while order < ORDER_CAP:
        nxt = min(2 * order, ORDER_CAP)
        check = value(nxt)
        residual = float(np.max(np.abs(check - val)
                                / np.maximum(np.abs(check), 1e-300)))
        if residual <= rtol:
            return Doubling(val, check, order, residual)
        order, val = nxt, check
    warnings.warn(f"order doubling did not stabilize below order cap "
                  f"{ORDER_CAP} (residual {residual})",
                  AccuracyWarning, stacklevel=3)
    return Doubling(val, val, order, residual)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre rule on [-1, 1]: weights sum to 2, exact through
    degree 2m - 1."""

    nodes: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=ORDER_CAP)
def _gauss_rule(m: int) -> QuadratureRule:
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = w.flags.writeable = False
    return QuadratureRule(nodes=x, weights=w)


def gauss_nodes(m: int) -> QuadratureRule:
    """The order-m rule, built once per process; its arrays are read-only.
    Every order up to ORDER_CAP stays cached (2.1 MB for all 512)."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValidationError(f"order {m} must be an integer >= 1")
    return _gauss_rule(int(m))


def _gl(a: float, b: float, m: int):
    """Nodes and weights on [a, b]."""
    rule = gauss_nodes(m)
    half = 0.5 * (b - a)
    return a + half * (rule.nodes + 1.0), half * rule.weights


def _rect_sides(rect):
    if hasattr(rect, "x1"):
        return rect.x1, rect.x2, rect.y1, rect.y2
    return rect


def _rect_value(f, sides, m: int) -> complex:
    x1, x2, y1, y2 = sides
    xs, wx = _gl(x1, x2, m)
    ys, wy = _gl(y1, y2, m)
    vals = f(xs[:, None] + 1j * ys[None, :])
    return complex(wx @ np.asarray(vals, dtype=complex) @ wy)


def integrate_rect(f, rect, m: int, tol: float = None) -> complex:
    """Tensor Gauss-Legendre integral of f over an axis-aligned rectangle.

    ``f`` must accept a complex ndarray.  Exact for polynomials of degree
    <= 2m - 1 per variable.  With ``tol`` set, the order-m value is
    verified by ``doubling`` (needed for e^{-2px} with large p) and the
    confirming value at twice the settled order comes back; no order above
    ORDER_CAP is evaluated, and an unconfirmed value carries one
    AccuracyWarning.
    """
    sides = _rect_sides(rect)
    x1, x2, y1, y2 = sides
    if x1 == x2 or y1 == y2:
        return 0.0 + 0.0j
    if tol is None:
        return _rect_value(f, sides, m)
    return doubling(lambda k: _rect_value(f, sides, k), m, tol).check
