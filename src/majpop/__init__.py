"""Optimal (0,1)-matrix completion with majorization-ordered objectives.

The package splits into five layers: :mod:`majpop.majorization` holds the
vector order relations and partition conjugates, :mod:`majpop.lattice` the
dominance-order meet/join/covering machinery, :mod:`majpop.completion` the
feasibility tests and constructive matrix operations,
:mod:`majpop.solvers` the peak-shaving/valley-filling solvers with tie
policies and full tie enumeration, and :mod:`majpop.oracle` an independent
brute-force certifier for desk-scale instances.  :mod:`majpop.cli` exposes
all of it as the ``majpop`` command.
"""

import importlib

# Module -> the names it exports here.  Each is imported on first access
# (PEP 562), so ``import majpop`` and the ``solve`` path load neither numpy
# nor the oracle and lattice modules until something asks for them.
_EXPORTS = {
    "completion": (
        "construct_matrix",
        "col_sums",
        "enumerate_matrices",
        "feasible_min_remaining",
        "gale_ryser_feasible",
        "geth_vector",
        "interchange",
        "make_matrix",
        "matrix_rows",
        "row_sums",
    ),
    "errors": (
        "BudgetExceededError",
        "InfeasibleError",
        "InternalInvariantError",
        "LengthMismatchError",
    ),
    "lattice": ("covers", "join", "join_recursive", "meet", "partitions"),
    "majorization": (
        "compare",
        "conjugate",
        "default_conjugate_dim",
        "equivalent",
        "majorized",
        "pad",
        "sort_asc",
        "sort_desc",
        "weakly_submajorized",
        "weakly_supermajorized",
    ),
    "oracle": (
        "AttainableSet",
        "CertificationReport",
        "certify",
        "enumerate_attainable",
        "maximal_elements",
        "minimal_elements",
    ),
    "solvers": (
        "HIGHEST_INDEX",
        "LOAD_ORDER",
        "LOWEST_INDEX",
        "Instance",
        "SolveResult",
        "TiePolicy",
        "enumerate_optima",
        "min_combined_profile",
        "min_remaining_profile",
        "peak_shave",
        "random_ties",
        "solve",
        "valley_fill",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


# Capitalised names first, then the rest, each group by name ignoring case.
__all__ = sorted(_MODULE_OF, key=lambda s: (s[0].islower(), s.lower()))

__version__ = "0.1.0"
