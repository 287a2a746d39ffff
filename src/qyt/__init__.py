"""Exact-arithmetic toolkit for quasi-Yamanouchi tableaux.

Everything is integer or integer-polynomial arithmetic: tableau
enumeration and statistics, Ferrers-board hit numbers and their
q-refinement, weighted-lattice-path polynomials, truncated
symmetric-function expansions, and exhaustive verification suites for
the identities tying them together.

`import qyt` loads none of the submodules.  `_EXPORTS` maps each
submodule to the public names it defines; the first use of a name, or of
a submodule as `qyt.<module>`, imports that submodule (PEP 562) and binds
the name here, so later uses are plain attribute reads.  `__all__` and
`dir(qyt)` are read from the same table.  Every CLI command is a fresh
process, and most commands need only a few of the modules.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "board": ("FerrersBoard",),
    "partition": ("Partition", "partitions"),
    "perm": ("multiset_perms", "perms"),
    "pnk": ("a_coeffs", "a_table", "pnk_eval_ebasis", "pnk_eval_paths", "qyt_counts_via_pnk"),
    "qpoly": ("Packed",),
    "symfun": ("gen_fn", "monomial_truncated", "rsk", "schur_truncated"),
    "tableau": ("Tableau", "enumerate_ssyt", "enumerate_syt", "kostka", "qyt_count_exact",
                "qyt_counts"),
    "verify": ("SUITES", "SuiteReport", "jack_coefficient", "ribbon_rows"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# `verify` itself is exported too, so `from qyt import *` binds the suites' module.
__all__ = [*_HOME, "verify"]


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return _import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
