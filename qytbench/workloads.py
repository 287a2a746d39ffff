"""The benchmark's workloads: lists of qyt CLI operations made from a seed.

The seed picks the shapes for `board`, `count` and `expand schur`, the
permutation for `rsk` and the `--seed` of the lattice suite.  Each shape
is drawn from a fixed class whose members cost the same, so that the seed
changes the inputs but not the amount of work.  The exhaustive `verify`
bounds do not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from checks import (
    a_table_text, board_hits_text, board_q_hits_json, board_q_hits_text, board_text,
    count_text, genfun_json, genfun_text, partitions, rsk_text, schur_json, schur_text,
    shape_text, verify_text, SUITES,
)


@dataclass(frozen=True)
class Op:
    """One `qyt` invocation.  `check` is applied to stdout when the exit
    code is `expect`; an op expecting 2 is a bad input, checked by
    checks.bad_input instead."""

    args: tuple[str, ...]
    check: Callable[[str], None] | None = None
    expect: int = 0

    @property
    def kind(self) -> str:
        return "verify" if self.args[0] == "verify" else "command"


def _verify(suite: str, max_n: int | None = None, **bounds) -> Op:
    args = ("verify", suite)
    if max_n is not None:
        args += ("--max-n", str(max_n))
        bounds = {"max_n": max_n, **bounds}
    if "seed" in bounds:
        args += ("--seed", str(bounds["seed"]))
    names = SUITES if suite == "all" else (suite,)
    return Op(args, partial(verify_text, suites={name: bounds for name in names}))


def _bad(*args: str) -> Op:
    return Op(tuple(args), None, expect=2)


# Each class holds shapes that cause the same work, so that the seed varies
# the input but not the cost.  Work is counted, not timed: tableaux built
# and output size decide both time and peak memory.
#: Partitions of 14 with three rows and 6006 standard fillings; `count
#: --max-entry 4` enumerates those fillings four times.
COUNT_14 = ("8,5,1", "5,5,4")
#: Pairs (partition of 10 in 8 variables, partition of 12 in 6 variables),
#: the smaller of each size matched with the larger of the other: 58632
#: and 60480 semistandard fillings, 498 and 520 kB of JSON.  Peak memory
#: is the first expansion's: 40.3 and 41.6 MB.
SCHUR_PAIRS = (("3,3,2,2", "5,4,3"), ("3,3,3,1", "5,5,2"))


def census(rng: random.Random) -> list[Op]:
    shape = shape_text(rng.choice(partitions(9)))
    return [
        _verify("hit", 8),
        _verify("maj-hit", 7),
        _verify("charge-hit", 7),
        _verify("jack", 7),
        _verify("gjw", 7),
        Op(("board", "--shape", shape, "--hits"), partial(board_hits_text, shape=shape)),
        Op(("board", "--shape", shape, "--plus-one", "--q-hits", "--format", "json"),
           partial(board_q_hits_json, shape=shape, plus_one=True)),
    ]


def tableaux(rng: random.Random) -> list[Op]:
    shape = rng.choice(COUNT_14)
    return [
        _verify("summation", 11),
        _verify("foulkes", 10),
        _verify("polya", 7, max_m=5),
        _verify("lattice", 10, points=200, seed=rng.randrange(1, 2**31)),
        Op(("expand", "genfun", "--n", "11", "--format", "json"), partial(genfun_json, n=11)),
        Op(("count", "--shape", shape, "--max-entry", "4"),
           partial(count_text, shape=shape, mode="max-entry", arg=4)),
        Op(("table", "a-coeffs", "--n", "14"), partial(a_table_text, n=14)),
    ]


def expansions(rng: random.Random) -> list[Op]:
    small, large = rng.choice(SCHUR_PAIRS)
    perm = list(range(1, 15))
    rng.shuffle(perm)
    word = ",".join(str(v) for v in perm)
    return [
        _verify("genfun", 6),
        Op(("expand", "schur", "--shape", small, "--vars", "8", "--format", "json"),
           partial(schur_json, shape=small, n_vars=8)),
        Op(("expand", "schur", "--shape", large, "--vars", "6", "--format", "json"),
           partial(schur_json, shape=large, n_vars=6)),
        Op(("rsk", word), partial(rsk_text, word=word)),
    ]


def defaults(rng: random.Random) -> list[Op]:
    """`verify all`, every command example of the README, and bad input.

    The first two bad inputs exit 0 with `pass` today: the suites accept
    bounds below 1 and check nothing.  They stay here, counted as failed,
    until the suites reject such bounds."""
    return [
        _verify("all"),
        Op(("count", "--shape", "2,2,1", "--exact-entry", "3"),
           partial(count_text, shape="2,2,1", mode="exact-entry", arg=3)),
        Op(("count", "--shape", "3,2", "--syt"), partial(count_text, shape="3,2", mode="syt")),
        Op(("count", "--shape", "2,2", "--ssyt", "3"),
           partial(count_text, shape="2,2", mode="ssyt", arg=3)),
        Op(("board", "--shape", "3,2"), partial(board_text, shape="3,2")),
        Op(("board", "--shape", "3,2", "--plus-one"),
           partial(board_text, shape="3,2", plus_one=True)),
        Op(("board", "--shape", "2,2,1", "--hits"), partial(board_hits_text, shape="2,2,1")),
        Op(("board", "--shape", "3,2", "--q-hits"), partial(board_q_hits_text, shape="3,2")),
        Op(("rsk", "45312"), partial(rsk_text, word="45312")),
        Op(("table", "a-coeffs", "--n", "6"), partial(a_table_text, n=6)),
        Op(("expand", "schur", "--shape", "2,2", "--vars", "3"),
           partial(schur_text, shape="2,2", n_vars=3)),
        Op(("expand", "genfun", "--n", "4"), partial(genfun_text, n=4)),
        _verify("hit", 6),
        _bad("verify", "hit", "--max-n", "0"),
        _bad("verify", "polya", "--max-n", "-3"),
        _bad("verify", "lattice", "--max-n", "0"),
        _bad("count", "--shape", "3,x", "--syt"),
        _bad("count", "--shape", "2,3", "--syt"),
        _bad("board", "--shape", "4,3,2,1,1", "--hits"),
        _bad("rsk", "2,2,0"),
        _bad("table", "a-coeffs", "--n", "0"),
        _bad("expand", "schur", "--vars", "3"),
    ]


WORKLOADS = {
    "census": census,
    "tableaux": tableaux,
    "expansions": expansions,
    "defaults": defaults,
}


def make(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
