"""Quadrature engines.

The Gauss-Legendre rule on [0, 1] and the order-doubling verifier, which
only the witnesses run: ``gram.build_gram`` and the tests' rectangle rule
(``tests/reference_routes.py``).  ``_gl`` feeds the cusp edge rule
(``CuspProfile.edge_points``) and the Gram witness's polar disk rule
(``gram._disk_rule``); no 2-D grid covers the cusp.
"""

from __future__ import annotations

import collections
import functools
import warnings

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


@functools.lru_cache(maxsize=ORDER_CAP)
def _gl(m: int):
    """Read-only nodes and weights of the order-m Gauss-Legendre rule on
    [0, 1], exact through degree 2m - 1; each order is built once, and all
    orders up to ORDER_CAP stay cached (2.1 MB for all 512)."""
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValidationError(f"order {m} must be an integer >= 1")
    x, w = np.polynomial.legendre.leggauss(int(m))
    s, ws = 0.5 * (x + 1.0), 0.5 * w
    s.flags.writeable = ws.flags.writeable = False
    return s, ws
