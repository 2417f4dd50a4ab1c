"""Fixtures shared by the test modules."""

import pytest

from mdskit.fields import TABLE_ORDER_LIMIT, FieldSpec


@pytest.fixture
def no_large_tables(monkeypatch):
    """Fail any listing of a field above TABLE_ORDER_LIMIT: building index
    tables starts by listing the whole field."""
    real = FieldSpec.elements

    def elements(self):
        if self.order > TABLE_ORDER_LIMIT:
            raise AssertionError(f"{self!r} listed, as tables are built")
        return real(self)

    monkeypatch.setattr(FieldSpec, "elements", elements)
