"""Symmetric exceptional collections of line bundles on products of projective spaces.

Exact tools to build Lefschetz collections invariant under coordinate
permutation, check semiorthogonality degree by degree, certify fullness by
a replayable window-generation closure, bound block sizes by character
counting, and search for new collections.

Importing the package runs this file alone: each public name is imported
from its submodule on first access (PEP 562), and numpy only when an array
kernel first runs; importing a submodule loads none.
"""

import functools
import importlib
import os

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "lattice": (
        "Box",
        "Multidegree",
        "Orbit",
        "OrbitSet",
        "canonical_rep",
        "format_multidegree",
        "orbit_of",
        "orbit_set",
        "parse_multidegree",
        "stabilizer_shape",
        "twist",
    ),
    "ext": ("GradedDims", "ext_graded", "is_orthogonal_pair", "line_cohomology"),
    "lefschetz": (
        "LefschetzCollection",
        "Violation",
        "adjust",
        "build_E",
        "build_Ehat",
        "check_exceptional",
        "check_lefschetz",
        "check_theorem_semiorthogonality",
        "collection_from_json",
        "collection_to_json",
        "flatten_bundles",
        "is_exceptional",
        "is_rectangular",
        "ranks",
        "staircase_rectangular",
        "x32_minimal",
        "x32_rectangular_part",
        "x32_residual",
        "x3n_rectangular",
        "xk1",
    ),
    "saturation": (
        "FULL",
        "INCONCLUSIVE",
        "NOT_FULL_BY_RANK",
        "ClosureState",
        "OrbitClosureState",
        "OrbitRule",
        "RuleApplication",
        "Verdict",
        "close",
        "close_cube",
        "close_orbits",
        "expand_orbit_trace",
        "replay_orbit_trace",
        "replay_trace",
        "residual_check",
        "verify_fullness",
    ),
    "reptheory": (
        "Partition",
        "SchurWeylTable",
        "content_orbit_count",
        "count_partitions",
        "dim_irrep",
        "dim_schur",
        "divisibility_criterion",
        "equivariant_lengths",
        "hook_lengths",
        "invariant_bound",
        "kostka",
        "lef_bounds",
        "partitions_of",
        "partitions_rho",
        "perm_module_dim",
        "schur_weyl_table",
        "transpose",
    ),
    "explorer": ("SearchResult", "SearchSpec", "search_minimal", "search_rectangular"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name or submodule, imported on first access and kept here."""
    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})


@functools.cache
def _numpy():
    """numpy, loaded on first call; every lefkit module takes it from here.

    lefkit calls no BLAS routine, so numpy's OpenBLAS is loaded with one
    thread instead of a pool of busy-waiting workers, one per core.  OpenBLAS
    reads the variable only when it loads, so it is removed again and the
    caller's environment (and every child process) is left as it was.  A
    value the caller set is kept; if numpy was imported before, nothing
    changes.
    """
    if "OPENBLAS_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
    import numpy

    return numpy
