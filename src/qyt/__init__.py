"""Exact-arithmetic toolkit for quasi-Yamanouchi tableaux.

Everything is integer or integer-polynomial arithmetic: tableau
enumeration and statistics, Ferrers-board hit numbers and their
q-refinement, weighted-lattice-path polynomials, truncated
symmetric-function expansions, and exhaustive verification suites for
the identities tying them together.
"""

from .board import FerrersBoard
from .partition import Partition, partitions
from .perm import descent_set, des, eulerian, inverse, maj, multiset_perms, perms
from .pnk import (
    a_coeffs,
    a_table,
    pnk_eval_ebasis,
    pnk_eval_paths,
    qyt_count_via_pnk,
    qyt_counts_via_pnk,
)
from .qpoly import InexactDivisionError, QPoly, QTPoly, q_binom, q_fact, q_int
from .symfun import (
    fundamental_truncated,
    gen_fn,
    monomial_truncated,
    rsk,
    rsk_multiset,
    schur_truncated,
)
from .tableau import (
    Tableau,
    des_maj_counts,
    enumerate_qyt_at_most,
    enumerate_qyt_exact,
    enumerate_ssyt,
    enumerate_syt,
    kostka,
    qyt_count_exact,
    qyt_counts,
)
from .verify import (
    SUITES,
    SuiteReport,
    foulkes_multiplicity,
    jack_coefficient,
    polya_dimension_check,
    ribbon_rows,
    signature_of,
)

__version__ = "0.1.0"

__all__ = [
    "FerrersBoard",
    "InexactDivisionError",
    "Partition",
    "QPoly",
    "QTPoly",
    "SuiteReport",
    "SUITES",
    "Tableau",
    "a_coeffs",
    "a_table",
    "des",
    "des_maj_counts",
    "descent_set",
    "enumerate_qyt_at_most",
    "enumerate_qyt_exact",
    "enumerate_ssyt",
    "enumerate_syt",
    "eulerian",
    "foulkes_multiplicity",
    "fundamental_truncated",
    "gen_fn",
    "inverse",
    "jack_coefficient",
    "kostka",
    "maj",
    "monomial_truncated",
    "multiset_perms",
    "partitions",
    "perms",
    "pnk_eval_ebasis",
    "pnk_eval_paths",
    "polya_dimension_check",
    "q_binom",
    "q_fact",
    "q_int",
    "qyt_count_exact",
    "qyt_count_via_pnk",
    "qyt_counts",
    "qyt_counts_via_pnk",
    "ribbon_rows",
    "rsk",
    "rsk_multiset",
    "schur_truncated",
    "signature_of",
    "verify",
]
