"""The package's public name list and the README's quick tour."""

from __future__ import annotations

import doctest
from pathlib import Path

import donlat

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_are_sorted_unique_and_resolve():
    names = donlat.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(donlat, name), name


def test_readme_quick_tour_runs():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted > 0
    assert failed == 0
