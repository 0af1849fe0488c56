"""Difference-of-squares factorization toolkit.

Public surface: the budgeted factor searches and their records
(engine), plus the ceiling square root and the primality test
(numeric).  Deterministic semiprime generation (semiprimes) and the
measurement harness (bench) are imported from their modules.
"""

from .engine import *  # republishes engine.__all__
from .numeric import ceil_sqrt, is_probable_prime

__version__ = "0.1.0"
