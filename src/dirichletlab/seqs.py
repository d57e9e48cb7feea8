"""Regularization of decay targets.

An arbitrary positive null sequence is first clamped to a non-increasing
sequence bounded by 2^-8 and then slowed so that consecutive terms drop
by at most the factor rho (1/2 by default).  The slowed sequence is what
every downstream construction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

CAP = 2.0 ** -8
MAX_TERMS = 1067        # 2^(-7-n) is 0 past n = 1067


@dataclass(frozen=True)
class DecaySequence:
    """Non-increasing positive targets eps_1 >= eps_2 >= ... >= eps_n.

    Invariants: eps_1 <= 2^-8 and eps_{i+1} >= eps_i / 2.  Entry j (1-based
    in the math) lives at ``values[j-1]``.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        v = self.values
        if len(v) < 1:
            raise ValidationError("empty sequence")
        if any(not (x > 0.0) for x in v):
            raise ValidationError("entries must be positive")
        if v[0] > CAP:
            raise ValidationError(f"first entry {v[0]} exceeds 2^-8")
        for i in range(len(v) - 1):
            if v[i + 1] > v[i]:
                raise ValidationError(f"sequence increases at index {i + 1}")
            # halving bound; exact in binary floating point
            if v[i + 1] < v[i] / 2:
                raise ValidationError(
                    f"entry {i + 2} drops below half of entry {i + 1}"
                )

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def clamp_monotone(raw) -> list[float]:
    """Clamp ``raw`` to out[i] = min(2^-8, max(raw[i:])).

    The output is non-increasing with first entry <= 2^-8.  The suffix
    maximum is taken over the finite list.
    """
    raw = list(raw)
    if not raw:
        raise ValidationError("empty input")
    if any(not (x > 0.0) for x in raw):
        raise ValidationError("entries must be positive")
    out = [0.0] * len(raw)
    suffix = 0.0
    for i in range(len(raw) - 1, -1, -1):
        suffix = max(suffix, raw[i])
        out[i] = min(CAP, suffix)
    return out


def slow_decay(seq, rho: float = 0.5) -> DecaySequence:
    """Slow the decay of ``seq``: out[i+1] = max(rho * out[i], seq[i+1]).

    ``seq`` must be non-increasing with first entry <= 2^-8 (the output of
    clamp_monotone qualifies).  The result dominates ``seq`` pointwise and,
    for rho = 1/2, satisfies every DecaySequence invariant.  The recursion
    is idempotent: re-slowing a slowed sequence changes nothing.
    """
    if not (0.0 < rho < 1.0):
        raise ValidationError(f"rho {rho} outside (0, 1)")
    seq = list(seq)
    if not seq:
        raise ValidationError("empty input")
    if any(not (x > 0.0) for x in seq):
        raise ValidationError("entries must be positive")
    if seq[0] > CAP:
        raise ValidationError(f"first entry {seq[0]} exceeds 2^-8")
    for i in range(len(seq) - 1):
        if seq[i + 1] > seq[i]:
            raise ValidationError("input must be non-increasing")
    out = [seq[0]]
    for x in seq[1:]:
        out.append(max(rho * out[-1], x))
    return DecaySequence(tuple(out))


def dyadic(n: int) -> DecaySequence:
    """The canonical targets eps_i = 2^(-7-i), i = 1..n."""
    if not (1 <= n <= MAX_TERMS):   # refused before any term is built
        raise ValidationError(f"need 1 <= n <= {MAX_TERMS}: "
                              f"2^(-7-n) is 0 past {MAX_TERMS}")
    return DecaySequence(tuple(2.0 ** (-7 - i) for i in range(1, n + 1)))
