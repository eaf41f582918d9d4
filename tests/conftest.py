import numpy as np
import pytest

from liemult import HeisenbergGroup, UnipotentGroup


@pytest.fixture(scope="session")
def heis2():
    return HeisenbergGroup(2, 2.0)


@pytest.fixture(scope="session")
def heis3p():
    return HeisenbergGroup(3, 3.0)


@pytest.fixture(scope="session")
def uni3():
    return UnipotentGroup(3)


@pytest.fixture(scope="session")
def uni4():
    return UnipotentGroup(4)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def reference_fold():
    """Prefix products by the fold of ``group.mul``, one cell at a time.

    The reference the groups' own prefix kernels are compared against:
    ``increments`` has shape (..., n, d) and the result (..., n+1, d) starts at
    the identity.
    """
    def fold(group, increments):
        increments = np.asarray(increments, dtype=float)
        n = increments.shape[-2]
        out = np.zeros(increments.shape[:-2] + (n + 1, group.dim))
        acc = np.broadcast_to(group.identity(), increments.shape[:-2] + (group.dim,)).copy()
        for k in range(n):
            acc = group.mul(acc, increments[..., k, :])
            out[..., k + 1, :] = acc
        return out
    return fold
