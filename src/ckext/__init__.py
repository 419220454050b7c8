"""Exact extension-group invariants of Cuntz-Krieger algebras.

Computes the weak extension group (the Bowen-Franks group Z^N/(I-A)Z^N) and
the strong extension group Z^N/(I-A^)Z^N of a 0-1 matrix A, locates the
Toeplitz extension class and the canonical class iota(1) inside them, and
decides the marked-group isomorphism criterion classifying the algebras.
All arithmetic is exact.
"""

from .exactmat import DimensionMismatchError, IntMatrix, NotSquareError, determinant, hnf_columns
from .fgab import FgAbelianGroup, GroupElement, ParentMismatchError, element_order
from .invariants import (
    ExactSequenceReport,
    ExtInvariantReport,
    IndexOutOfRangeError,
    IsPermutationError,
    NotIrreducibleError,
    NotZeroOneError,
    TooSmallError,
    ValidationError,
    ZeroOneMatrix,
    a_hat,
    exts,
    extw,
    hat_q,
    invariants_report,
    iota_hat,
    iota_kernel_generator,
    toeplitz_d_vector,
    toeplitz_strong,
    toeplitz_weak,
    transpose,
    validate,
    verify_exact_sequence,
    verify_im0_identity,
)
from .markediso import (
    MarkedGroup,
    MarkerCountMismatchError,
    NotFiniteError,
    TooLargeError,
    TorsionTooLargeError,
    ck_isomorphic,
    marked_group,
    marked_iso_bruteforce,
    marked_isomorphic,
)
from .corpus import CORPUS, CorpusEntry, MarkedDescriptor, cuntz_rows

__all__ = [
    "CORPUS",
    "CorpusEntry",
    "DimensionMismatchError",
    "ExactSequenceReport",
    "ExtInvariantReport",
    "FgAbelianGroup",
    "GroupElement",
    "IndexOutOfRangeError",
    "IntMatrix",
    "IsPermutationError",
    "MarkedDescriptor",
    "MarkedGroup",
    "MarkerCountMismatchError",
    "NotFiniteError",
    "NotIrreducibleError",
    "NotSquareError",
    "NotZeroOneError",
    "ParentMismatchError",
    "TooLargeError",
    "TooSmallError",
    "TorsionTooLargeError",
    "ValidationError",
    "ZeroOneMatrix",
    "a_hat",
    "ck_isomorphic",
    "cuntz_rows",
    "determinant",
    "element_order",
    "exts",
    "extw",
    "hat_q",
    "hnf_columns",
    "invariants_report",
    "iota_hat",
    "iota_kernel_generator",
    "marked_group",
    "marked_iso_bruteforce",
    "marked_isomorphic",
    "toeplitz_d_vector",
    "toeplitz_strong",
    "toeplitz_weak",
    "transpose",
    "validate",
    "verify_exact_sequence",
    "verify_im0_identity",
]
