"""Gauss-Legendre rule on [0, 1].

``_gl`` feeds the cusp edge rule (``CuspProfile.edge_points``) and the
Gram witness's polar disk rule (``gram._disk_rule``); no 2-D grid covers
the cusp.  The witness compares its order m with 2m itself
(``gram.build_gram``); the escalating order-doubling verifier is a test
oracle (``tests/reference_routes.py``).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ValidationError

ORDER_CAP = 512


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
