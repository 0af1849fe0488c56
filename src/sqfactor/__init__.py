"""Difference-of-squares factorization toolkit.

Public surface: integer-root and square-test primitives (numeric),
the budgeted factor searches (engine), deterministic semiprime
generation (semiprimes), and the measurement harness (bench).
"""

from .engine import *  # republishes engine.__all__
from .numeric import (
    SquareTestResult,
    ceil_sqrt,
    floor_sqrt,
    is_perfect_square,
    is_probable_prime,
    residue_filter,
)

__version__ = "0.1.0"
