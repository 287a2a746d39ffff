"""Run one qyt CLI operation with spans around the calls into each qyt module.

Usage:  QYTBENCH_SPAN_FD=<fd> python qytbench/traced.py <qyt arguments...>

The qyt modules are the layers.  Before the CLI runs, every public
function and method of every layer is replaced by a wrapper, on the
defining module and on every qyt module that binds the same object
(``verify`` and ``symfun`` both do ``from .tableau import enumerate_syt``).
A wrapper opens a span only when the call crosses from one layer into
another; a call that stays inside its layer is counted but not spanned,
so a layer's self time is its span time minus the time its child spans
(always of other layers) cover.

When the CLI returns, the spans and counters go to the descriptor named
by QYTBENCH_SPAN_FD as one JSON header line followed by the raw span
arrays.  Nothing is written while the operation runs, and nothing in
``src/qyt`` is changed on disk.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from array import array
from math import comb, factorial
from time import perf_counter_ns

#: Layer name -> defining module.  ``_kernels`` is reported as ``kernels``
#: because metric names may not start with an underscore.
LAYERS = {
    "cli": "qyt.cli",
    "verify": "qyt.verify",
    "symfun": "qyt.symfun",
    "pnk": "qyt.pnk",
    "board": "qyt.board",
    "kernels": "qyt._kernels",
    "tableau": "qyt.tableau",
    "perm": "qyt.perm",
    "qpoly": "qyt.qpoly",
    "partition": "qyt.partition",
}

#: Dunder methods that are part of a class's arithmetic interface and so
#: count as calls into the layer.  Other dunders (construction, hashing,
#: container protocol, printing) are left alone: they are either too
#: fine-grained to span or belong to output formatting in ``cli``.
WRAPPED_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__call__", "__eq__",
}

# Span columns, one entry per span: name id, parent span index (-1 for a
# root), start and end in perf_counter nanoseconds.
S_NAME = array("i")
S_PARENT = array("i")
S_START = array("q")
S_END = array("q")
NAMES: list[str] = []
CALLS: list[int] = []
COUNTERS: dict[str, int] = {}
BOARDS: set = set()  # (n, heights) of every board whose census was asked for
Q_BINOMS: set = set()  # (a, b) of every q_binom call
_STATE = [-1, ""]  # innermost open span, and its layer


def _bump(key: str, by: int = 1) -> None:
    COUNTERS[key] = COUNTERS.get(key, 0) + by


def _in_layer(fn, name_id: int, layer: str, *args, **kwargs):
    """Call fn, inside a new span when the call enters `layer` from another."""
    parent, parent_layer = _STATE
    if parent_layer == layer:
        return fn(*args, **kwargs)
    idx = len(S_NAME)
    S_NAME.append(name_id)
    S_PARENT.append(parent)
    S_START.append(perf_counter_ns())
    S_END.append(0)
    _STATE[0], _STATE[1] = idx, layer
    try:
        return fn(*args, **kwargs)
    finally:
        S_END[idx] = perf_counter_ns()
        _STATE[0], _STATE[1] = parent, parent_layer


def _traced_iter(it, name_id: int, layer: str, counter: str | None):
    """Yield from `it`, each step a call into `layer`."""
    while True:
        try:
            item = _in_layer(next, name_id, layer, it)
        except StopIteration:
            return
        if counter is not None:
            _bump(counter)
        yield item


def _wrap(fn, name: str, layer: str):
    name_id = len(NAMES)
    NAMES.append(name)
    CALLS.append(0)
    pre, post = HOOKS.get(name, (None, None))
    word_counter = WORD_COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        CALLS[name_id] += 1
        token = pre() if pre is not None else None
        result = _in_layer(fn, name_id, layer, *args, **kwargs)
        if post is not None:
            post(args, result, token)
        if hasattr(result, "__next__"):
            return _traced_iter(result, name_id, layer, word_counter)
        return result

    return traced


# ---------------------------------------------------------------------------
# counters recorded at the layer boundaries


def _census(args, result, token):
    _bump("kernels.perms_swept", factorial(args[0]))


def _census_board(args, result, token):
    BOARDS.add((args[0].n, args[0].heights))


def _poly_len(x) -> int:
    coeffs = getattr(x, "coeffs", None)
    if coeffs is not None:
        return len(coeffs)
    return 1 if x else 0


def _qpoly_mul(args, result, token):
    if result is not NotImplemented:
        _bump("qpoly.mul_coeff_products", _poly_len(args[0]) * _poly_len(args[1]))


def _q_binom(args, result, token):
    Q_BINOMS.add(tuple(args))


def _syt_built(args, result, token):
    _bump("tableau.syt_built", len(result))


def _ssyt_built(args, result, token):
    _bump("tableau.ssyt_built", len(result))


def _count_exact_pre():
    return COUNTERS.get("tableau.syt_built", 0)


def _count_exact(args, result, token):
    _bump("tableau.count_built", COUNTERS.get("tableau.syt_built", 0) - token)
    _bump("tableau.count_counted", result)


def _paths_summed(args, result, token):
    _bump("pnk.paths_summed", comb(args[0], args[1]))


def _monomials_out(args, result, token):
    _bump("symfun.monomials_out", len(result))


HOOKS = {
    "kernels.hit_census": (None, _census),
    "kernels.q_hit_census": (None, _census),
    "board.FerrersBoard.hit_numbers": (None, _census_board),
    "board.FerrersBoard.q_hit_numbers": (None, _census_board),
    "qpoly.QPoly.__mul__": (None, _qpoly_mul),
    "qpoly.q_binom": (None, _q_binom),
    "tableau.enumerate_syt": (None, _syt_built),
    "tableau.enumerate_ssyt": (None, _ssyt_built),
    "tableau.qyt_count_exact": (_count_exact_pre, _count_exact),
    "pnk.pnk_eval_paths": (None, _paths_summed),
    "symfun.schur_truncated": (None, _monomials_out),
    "symfun.monomial_truncated": (None, _monomials_out),
    "symfun.fundamental_truncated": (None, _monomials_out),
}

WORD_COUNTERS = {
    "perm.perms": "perm.words_generated",
    "perm.multiset_perms": "perm.words_generated",
}


# ---------------------------------------------------------------------------
# installation


def _public_callables(module):
    """(qualified name, owner, attribute, original) for each public
    function and method defined in `module`."""
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            for meth, raw in sorted(vars(obj).items()):
                if meth.startswith("_") and meth not in WRAPPED_DUNDERS:
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or (
                        callable(raw) and not isinstance(raw, type)):
                    yield f"{attr}.{meth}", obj, meth, raw
        elif callable(obj):
            yield attr, module, attr, obj


def install() -> None:
    """Wrap every layer's public callables wherever qyt binds them."""
    wrappers: dict[int, object] = {}
    for layer, modname in LAYERS.items():
        module = importlib.import_module(modname)
        for qualname, owner, attr, raw in _public_callables(module):
            name = f"{layer}.{qualname}"
            if isinstance(raw, (classmethod, staticmethod)):
                if id(raw.__func__) not in wrappers:
                    wrappers[id(raw.__func__)] = _wrap(raw.__func__, name, layer)
                setattr(owner, attr, type(raw)(wrappers[id(raw.__func__)]))
                continue
            if id(raw) not in wrappers:
                wrappers[id(raw)] = _wrap(raw, name, layer)
            if owner is not module:
                setattr(owner, attr, wrappers[id(raw)])
    # Rebind module-level names everywhere, the package namespace included.
    for modname, module in list(sys.modules.items()):
        if modname != "qyt" and not modname.startswith("qyt."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])
    suites = sys.modules["qyt.verify"].SUITES
    for key, fn in list(suites.items()):
        suites[key] = wrappers.get(id(fn), fn)


def _write_out(fd: int) -> None:
    counters = dict(COUNTERS)
    counters["board.census_distinct"] = len(BOARDS)
    counters["qpoly.q_binom_distinct"] = len(Q_BINOMS)
    header = {
        "names": NAMES,
        "calls": CALLS,
        "counters": counters,
        "spans": len(S_NAME),
    }
    blob = json.dumps(header).encode() + b"\n"
    blob += S_NAME.tobytes() + S_PARENT.tobytes() + S_START.tobytes() + S_END.tobytes()
    with os.fdopen(fd, "wb") as out:
        out.write(blob)


def main(argv: list[str]) -> int:
    fd = int(os.environ["QYTBENCH_SPAN_FD"])
    import qyt  # noqa: F401  (binds every layer into the package namespace)
    import qyt.cli

    install()
    try:
        return qyt.cli.main(argv)
    finally:  # also on SystemExit from argparse usage errors and --help
        sys.stdout.flush()
        _write_out(fd)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
