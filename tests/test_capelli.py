from fractions import Fraction as F

import pytest

from superdual.oscillator.capelli import (
    capelli_identity_check,
    capelli_norm_factor,
    delta_ladder_norms,
)
from superdual.partitions import Partition


def test_norm_factor_values():
    g = F(1, 2)
    assert capelli_norm_factor(Partition(), g, 0, 2) == (g + 1) * (g + 2)
    assert capelli_norm_factor(Partition(), F(0), 0, 2) == 2
    assert capelli_norm_factor(Partition((1,)), F(1, 2), 0, 3) == F(135, 8)


@pytest.mark.parametrize("P,gamma", [(2, F(0)), (2, F(1, 2)), (3, F(-1, 3))])
def test_capelli_identity(P, gamma):
    assert capelli_identity_check(P, gamma, cutoff=3 if P == 2 else 2)


def test_norm_ladder_matches_factor():
    for P in (2, 3):
        for gamma in (F(0), F(1, 2), F(-1, 3)):
            for mu in [Partition(()), Partition((1,)), Partition((2, 1))]:
                if mu.height >= P:
                    continue
                got = delta_ladder_norms(P, gamma, mu, 2)
                want = [capelli_norm_factor(mu, gamma, n, P) for n in (0, 1)]
                assert got == want
