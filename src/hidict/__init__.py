"""History-independent, robust, learning-augmented ordered dictionaries."""

from .core import (
    CapacityError,
    ComparisonTally,
    DuplicateKeyError,
    MissingKeyError,
    derive_seed,
    geometric_from_bits,
    oracle_uniform,
    oracle_value,
)
from .structures import (
    AVLTree,
    CTreap,
    LTreap,
    SearchResult,
    ZipZipTree,
    zz_rank,
)
from .thresholding import ThresholdedDict, threshold, threshold_array
from .pairing import PairedDict, GAMMA_EXPECTED_DEPTH, GAMMA_HEIGHT
from .dynamics import (
    CutoffSimulator,
    DynamicThresholdDict,
    amortized_after_delete,
    amortized_after_insert,
    counterexample_structures,
    whi_after_delete,
    whi_before_insert,
)
from .hiverify import HiReport, shi_check, whi_check

__all__ = [
    "AVLTree", "CTreap", "CapacityError", "ComparisonTally", "CutoffSimulator",
    "DuplicateKeyError", "DynamicThresholdDict",
    "GAMMA_EXPECTED_DEPTH", "GAMMA_HEIGHT", "HiReport", "LTreap",
    "MissingKeyError", "PairedDict", "SearchResult",
    "ThresholdedDict", "ZipZipTree", "amortized_after_delete",
    "amortized_after_insert", "counterexample_structures",
    "derive_seed", "geometric_from_bits", "oracle_uniform",
    "oracle_value", "shi_check", "threshold", "threshold_array",
    "whi_after_delete", "whi_before_insert", "whi_check",
    "zz_rank",
]
