"""Stealth data-injection attacks on DC state estimation.

Builds the linearized measurement model of a power network, constructs
information-theoretic Gaussian stealth attacks, estimates by Monte Carlo
how the attack degrades when its statistics are learned from K training
samples, and evaluates a closed-form random-matrix upper bound on that
ergodic performance.

The package exports every layer's ``__all__``; each layer states its own
public names once.  Imported before numpy, it sets ``OPENBLAS_THREAD_TIMEOUT=4``
unless already set, so idle OpenBLAS workers sleep instead of spinning.
"""

import os

# Before the first layer import loads numpy and OpenBLAS: an idle OpenBLAS
# worker otherwise spins about 60 ms of CPU per process before it sleeps.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"

from . import bounds, detection, experiment, gaussian, grid, learning
from .bounds import *
from .detection import *
from .experiment import *
from .gaussian import *
from .grid import *
from .learning import *

__all__ = [
    "__version__",
    *grid.__all__,
    *gaussian.__all__,
    *learning.__all__,
    *bounds.__all__,
    *detection.__all__,
    *experiment.__all__,
]
