"""Fixtures shared by the test modules."""

from functools import cached_property

import pytest

from latforge import Basis


@pytest.fixture
def computed_gram_dets(monkeypatch) -> list:
    """The rows of each basis whose det(B.B^T) is computed during the test,
    in order: ``Basis._gram_det``, the memo behind ``gram_det``, is rebound
    to count its misses.  A carried or kept determinant is not counted."""
    compute, computed = Basis._gram_det.func, []

    def counted(b):
        computed.append(b.rows)
        return compute(b)

    memo = cached_property(counted)
    memo.__set_name__(Basis, "_gram_det")
    monkeypatch.setattr(Basis, "_gram_det", memo)
    return computed
