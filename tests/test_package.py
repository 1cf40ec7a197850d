"""The package's public name list."""

from __future__ import annotations

import donlat


def test_public_names_are_sorted_unique_and_resolve():
    names = donlat.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(donlat, name), name
