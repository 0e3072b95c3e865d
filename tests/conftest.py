from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from stealthgrid import build_dc_jacobian, load_ieee30

# CI hosts (GitHub Actions sets CI) replay the same examples on every run,
# so a property test cannot fail there by the luck of the draw.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")

TWO_BUS_CASE = """function mpc = case2
mpc.version = '2';
mpc.baseMVA = 100;

mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1\t0\t135\t1\t1.05\t0.95;
\t2\t1\t10\t5\t0\t0\t1\t1\t0\t135\t1\t1.05\t0.95;
];

mpc.branch = [
\t1\t2\t0.01\t0.5\t0\t100\t100\t100\t0\t0\t1\t-360\t360;
];
"""


@pytest.fixture(scope="session")
def ieee30_case():
    return load_ieee30()


@pytest.fixture(scope="session")
def ieee30_h(ieee30_case) -> np.ndarray:
    return build_dc_jacobian(ieee30_case).h


@pytest.fixture
def two_bus_text() -> str:
    return TWO_BUS_CASE
