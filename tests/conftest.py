import numpy as np
import pytest

from dmmsim.ldpc import LdpcCode


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def no_code_construction(monkeypatch):
    """LdpcCode's two constructors, patched to fail if a test reaches them."""

    def built(*args, **kwargs):
        raise AssertionError("a code was built before a refusal")

    for name in ("random_regular", "from_alist"):
        monkeypatch.setattr(LdpcCode, name, built)
