"""Lower bounds on the family complexity of Legendre sequence families.

The family in question: for an odd prime p and degree k, take the Legendre
sequences generated by all monic irreducible degree-k polynomials over F_p.
This package computes two lower bounds on that family's complexity (an
older logarithmic one and a sharper Lambert-W-based one), the exact value
by brute force for tiny cases, and the finite-field machinery both rest on.
"""

from .bounds import (
    BoundReport,
    compute_A_B,
    crossover_prime,
    guaranteed_j,
    gyarmati_bound,
    lemma4_closed_form,
    make_report,
    theorem1_bound,
    upper_bound,
)
from .checks import CheckReport, check_corollary1, check_gauss, check_weil, run_suite
from .errors import BudgetExceededError
from .fcomplexity import ComplexityResult, family_complexity
from .gf import ExtField, enumerate_irreducibles
from .lambertw import ConvergenceError, WResult, w0_complex, w0_from_log, w0_real
from .legendre_seq import SequenceFamily, build_family, legendre_symbol
from .ntheory import (
    count_irreducibles,
    count_subfield_elements,
    divisors,
    is_prime,
    is_prime_power,
    log2_of_big,
    mobius,
    primes_up_to,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceededError",
    "CheckReport",
    "ComplexityResult",
    "ConvergenceError",
    "ExtField",
    "SequenceFamily",
    "WResult",
    "build_family",
    "check_corollary1",
    "check_gauss",
    "check_weil",
    "compute_A_B",
    "count_irreducibles",
    "count_subfield_elements",
    "crossover_prime",
    "divisors",
    "enumerate_irreducibles",
    "family_complexity",
    "guaranteed_j",
    "gyarmati_bound",
    "is_prime",
    "is_prime_power",
    "legendre_symbol",
    "lemma4_closed_form",
    "log2_of_big",
    "make_report",
    "mobius",
    "primes_up_to",
    "run_suite",
    "theorem1_bound",
    "upper_bound",
    "w0_complex",
    "w0_from_log",
    "w0_real",
]
