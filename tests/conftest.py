import ast
from pathlib import Path

import numpy as np
import pytest

from sinhgordon import validate_params


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: full-scale acceptance criteria (minutes, run by default)")


@pytest.fixture
def unit_params():
    return validate_params(1.0, 1.0, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def combined_se(*ses) -> float:
    return float(np.sqrt(sum(s * s for s in ses)))


def agree(a, se_a, b, se_b, n_sigma=3.0, slack=0.0) -> bool:
    return abs(a - b) <= n_sigma * combined_se(se_a, se_b) + slack


def src_callers(name: str) -> set:
    """(module, top-level definition) of every call of ``name`` in the package source."""
    src = Path(__file__).parents[1] / "src" / "sinhgordon"
    found = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.attr if isinstance(func, ast.Attribute) else \
                        getattr(func, "id", None)
                    if called == name:
                        found.add((path.stem, getattr(top, "name", None)))
    return found
