import tracemalloc

import numpy as np
import pytest

from dirichletlab.errors import ValidationError
from dirichletlab.seqs import CAP, DecaySequence, clamp_monotone, dyadic, slow_decay


def test_dyadic_values_exact():
    s = dyadic(4)
    assert list(s.values) == [2.0**-8, 2.0**-9, 2.0**-10, 2.0**-11]
    assert len(s) == 4
    assert list(s)[0] == 2.0**-8


def test_dyadic_rejects_bad_length():
    with pytest.raises(ValidationError):
        dyadic(0)


def test_dyadic_refuses_underflowing_lengths_up_front():
    # 2^(-7-n) is the smallest subnormal at n = 1067 and 0 from 1068 on
    assert dyadic(1067).values[-1] == 2.0 ** -1074 > 0.0
    with pytest.raises(ValidationError):
        dyadic(1068)
    # refused before any term is built: no 10^6-term tuple (about 32 MB)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError):
            dyadic(1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_cap_value():
    assert CAP == 2.0**-8


def test_sequence_invariants_enforced():
    with pytest.raises(ValidationError):
        DecaySequence((1e-3, 2e-3))  # increasing
    with pytest.raises(ValidationError):
        DecaySequence((1e-2,))  # above the cap
    with pytest.raises(ValidationError):
        DecaySequence((1e-3, 0.0))  # not positive
    with pytest.raises(ValidationError):
        DecaySequence((1e-3, 1e-4))  # drops faster than halving
    with pytest.raises(ValidationError):
        DecaySequence(())


def test_sequence_accepts_halving_boundary():
    s = DecaySequence((CAP, CAP / 2, CAP / 4))
    assert s.values[2] == CAP / 4


def test_clamp_monotone_oracle():
    # Expected values computed by hand: running suffix maximum, then
    # capped at 2^-8.  5e-3 exceeds the cap, 1e-3 does not.
    out = clamp_monotone([1.0, 3e-3, 5e-3, 1e-3])
    assert list(out) == [CAP, CAP, CAP, 1e-3]


def test_clamp_monotone_rejects_nonpositive():
    with pytest.raises(ValidationError):
        clamp_monotone([1e-3, -1e-4])


def test_slow_decay_oracle():
    raw = [CAP, CAP / 10, CAP / 20, CAP / 100]
    out = slow_decay(raw, rho=0.5)
    # Each input term is below half of the running value, so the output
    # is the pure geometric envelope.
    assert list(out.values) == [CAP, CAP / 2, CAP / 4, CAP / 8]


def test_slow_decay_dominates_and_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(2, 12))
        raw = clamp_monotone(np.exp(-rng.uniform(0.0, 20.0, size=n)))
        out = slow_decay(raw, rho=0.5)
        assert np.all(np.asarray(out.values) >= np.asarray(raw))
        for a, b in zip(out.values, out.values[1:]):
            assert b >= 0.5 * a
            assert b <= a
        again = slow_decay(out, rho=0.5)
        assert list(again.values) == list(out.values)


def test_slow_decay_validates_rho():
    raw = dyadic(3)
    with pytest.raises(ValidationError):
        slow_decay(raw, rho=0.0)
    with pytest.raises(ValidationError):
        slow_decay(raw, rho=1.0)
