"""Output checkers for the qyt CLI benchmark.

Every checker recomputes what a CLI output must satisfy by a route of its
own: plain integers and polynomials as coefficient lists (index =
degree), with no import of qyt.  A checker returns nothing when the
output is right and raises CheckFailed otherwise.

Conventions follow the qyt README: diagrams are French (row 1 at the
bottom), a shape's text form is "4,2,1", a tableau's text form lists its
rows bottom to top joined by "/", and QPoly JSON is [degree, coeff] pairs.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from collections import Counter
from math import comb, factorial, prod

#: The verify suites the README lists, in the order `verify all` runs them.
SUITES = (
    "hit", "maj-hit", "charge-hit", "summation", "lattice",
    "genfun", "gjw", "foulkes", "polya", "jack",
)


class CheckFailed(Exception):
    """An output differs from what an independent computation requires."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# partitions and diagrams


def parse_shape(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",")) if text else ()


def shape_text(shape) -> str:
    return ",".join(str(p) for p in shape)


def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n, lexicographically decreasing."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(first,) + rest
            for first in range(min(cap, n), 0, -1)
            for rest in partitions(n - first, first)]


def conjugate(shape) -> tuple[int, ...]:
    return tuple(sum(1 for p in shape if p > i) for i in range(shape[0] if shape else 0))


def hooks(shape) -> list[int]:
    conj = conjugate(shape)
    return [shape[j] - i + conj[i] - j - 1 for j in range(len(shape)) for i in range(shape[j])]


def contents(shape) -> list[int]:
    return [i - j for j in range(len(shape)) for i in range(shape[j])]


def n_stat(shape) -> int:
    return sum(i * p for i, p in enumerate(shape))


def hook_length_count(shape) -> int:
    """f^shape = n! / prod of hooks."""
    return factorial(sum(shape)) // prod(hooks(shape))


def hook_content_count(shape, m: int) -> int:
    """Semistandard fillings with entries <= m: prod (m + c) / prod h."""
    num = prod(m + c for c in contents(shape))
    count, rem = divmod(num, prod(hooks(shape)))
    require(rem == 0, f"hook-content product of {shape} at m={m} is not integral")
    return count


def qyt_exact(shape, k1: int) -> int:
    """Quasi-Yamanouchi fillings with largest entry exactly k1 (>= 1), by
    the alternating sum of hook-content counts."""
    n, k = sum(shape), k1 - 1
    return sum(comb(n + 1, k - m) * (-1) ** (k - m) * hook_content_count(shape, m + 1)
               for m in range(k + 1))


def dominates(lam, mu) -> bool:
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomials in q as coefficient lists


def trim(p: list[int]) -> list[int]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def pmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


def q_fact(n: int) -> list[int]:
    out = [1]
    for k in range(1, n + 1):
        out = pmul(out, [1] * k)
    return out


def shift(p: list[int], d: int) -> list[int]:
    return [0] * d + p if p else []


def from_pairs(pairs) -> list[int]:
    """Dense coefficients from [degree, coeff] pairs, which must ascend."""
    degrees = [d for d, _ in pairs]
    require(degrees == sorted(set(degrees)), f"pairs not strictly ascending: {pairs}")
    out = [0] * (degrees[-1] + 1 if degrees else 0)
    for d, c in pairs:
        require(c != 0, f"zero coefficient listed: {pairs}")
        out[d] = c
    return out


_QTERM = re.compile(r"^(\d*)(?:q(?:\^(\d+))?)?$")


def parse_qpoly(text: str) -> list[int]:
    """Inverse of the qyt text form, e.g. "1 + 2q + q^3 - 4q^5"."""
    text = text.strip()
    if text == "0":
        return []
    out: dict[int, int] = {}
    tokens = text.split(" ")
    sign, chunks = 1, []
    for tok in tokens:
        if tok in "+-":
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        chunks.append((sign, tok))
    for sign, body in chunks:
        match = _QTERM.match(body)
        require(bool(body) and match is not None, f"bad q-polynomial term {body!r}")
        digits, power = match.group(1), match.group(2)
        has_q = "q" in body
        require(has_q or digits, f"bad q-polynomial term {body!r}")
        degree = (int(power) if power else 1) if has_q else 0
        require(degree not in out, f"repeated degree in {text!r}")
        out[degree] = sign * (int(digits) if digits else 1)
    return from_pairs(sorted(out.items()))


def parse_qtpoly(text: str) -> dict[tuple[int, int], int]:
    """Inverse of the qyt text form of a (q, t) polynomial, e.g.
    "1 + q t + 2 q^2 t^3"."""
    text = text.strip()
    if text == "0":
        return {}
    out: dict[tuple[int, int], int] = {}
    pieces = re.split(r" ([+-]) ", text)
    signs = [1] + [1 if s == "+" else -1 for s in pieces[1::2]]
    for sign, chunk in zip(signs, pieces[0::2]):
        if chunk.startswith("-"):
            sign, chunk = -sign, chunk[1:]
        words = chunk.split(" ")
        coeff = 1
        if words[0].isdigit():
            coeff = int(words.pop(0))
        qd = td = 0
        for atom in words:
            match = re.fullmatch(r"([qt])(?:\^(\d+))?", atom)
            require(match is not None, f"bad (q, t) term {chunk!r}")
            power = int(match.group(2)) if match.group(2) else 1
            if match.group(1) == "q":
                qd = power
            else:
                td = power
        require((qd, td) not in out, f"repeated term in {text!r}")
        out[(qd, td)] = sign * coeff
    return out


# ---------------------------------------------------------------------------
# boards and rook theory


def board_heights(shape, plus_one: bool = False) -> list[int]:
    """Column heights c_i + i - 1 (contents in decreasing order), raised
    by one when plus_one."""
    cs = sorted(contents(shape), reverse=True)
    return [c + i + int(plus_one) for i, c in enumerate(cs)]


def rook_numbers(heights) -> list[int]:
    """r_k of a Ferrers board, column by column in increasing height: the
    k-th rook has h - (k - 1) free rows in a column of height h."""
    n = len(heights)
    r = [1] + [0] * n
    for col, h in enumerate(sorted(heights), 1):
        for k in range(col, 0, -1):
            r[k] += r[k - 1] * max(h - (k - 1), 0)
    return r


def hit_numbers(heights) -> list[int]:
    """h_k = sum_j r_j (n - j)! (-1)^(j - k) C(j, k)."""
    n = len(heights)
    r = rook_numbers(heights)
    return [sum(r[j] * factorial(n - j) * (-1) ** (j - k) * comb(j, k) for j in range(k, n + 1))
            for k in range(n + 1)]


def _check_q_hits(polys: list[list[int]], heights) -> None:
    n = len(heights)
    require(len(polys) == n + 1, f"expected {n + 1} q-hit numbers, got {len(polys)}")
    for k, p in enumerate(polys):
        require(all(c >= 0 for c in p), f"T_{k} has a negative coefficient")
    total: list[int] = []
    for p in polys:
        total = padd(total, p)
    require(total == q_fact(n), "the q-hit numbers do not sum to [n]!")
    require([sum(p) for p in polys] == hit_numbers(heights), "T_k(1) differs from the hit numbers")


def board_text(out: str, shape: str, plus_one: bool = False) -> None:
    """`board --shape S [--plus-one]`: the column heights."""
    want = ",".join(str(h) for h in board_heights(parse_shape(shape), plus_one))
    require(out.strip() == want, f"heights {out.strip()!r}, expected {want!r}")


def board_hits_text(out: str, shape: str, plus_one: bool = False) -> None:
    """`board --hits`: h_0..h_n from the rook numbers."""
    got = [int(v) for v in out.strip().split(",")]
    want = hit_numbers(board_heights(parse_shape(shape), plus_one))
    require(got == want, f"hit numbers {got}, expected {want}")


def board_q_hits_json(out: str, shape: str, plus_one: bool = False) -> None:
    """`board --q-hits --format json`."""
    blob = json.loads(out)
    heights = board_heights(parse_shape(shape), plus_one)
    require(blob.get("shape") == shape, "shape not echoed")
    require(blob.get("n") == len(heights), "board size differs")
    require(blob.get("heights") == heights, f"heights {blob.get('heights')}, expected {heights}")
    _check_q_hits([from_pairs(p) for p in blob["q_hit_numbers"]], heights)


def board_q_hits_text(out: str, shape: str, plus_one: bool = False) -> None:
    """`board --q-hits`: lines "T_k = <polynomial>"."""
    polys = []
    for k, line in enumerate(out.strip().splitlines()):
        label, _, poly = line.partition(" = ")
        require(label == f"T_{k}", f"line {k} is labelled {label!r}")
        polys.append(parse_qpoly(poly))
    _check_q_hits(polys, board_heights(parse_shape(shape), plus_one))


# ---------------------------------------------------------------------------
# counts and tables


def count_text(out: str, shape: str, mode: str, arg: int | None = None) -> None:
    """`count`: --syt by the hook-length formula, --ssyt by the
    hook-content formula, --exact-entry / --max-entry by the alternating
    sum of hook-content counts."""
    lam = parse_shape(shape)
    if mode == "syt":
        want = hook_length_count(lam)
    elif mode == "ssyt":
        want = hook_content_count(lam, arg)
    elif mode == "exact-entry":
        want = qyt_exact(lam, arg) if arg >= 1 else int(not lam)
    elif mode == "max-entry":
        want = int(not lam) + sum(qyt_exact(lam, k) for k in range(1, arg + 1))
    else:
        raise ValueError(f"unknown count mode {mode!r}")
    require(out.strip() == str(want), f"count {out.strip()!r}, expected {want}")


def eulerian_row(n: int) -> list[int]:
    """A(n, k) for k = 0..n by A(n,k) = (k+1) A(n-1,k) + (n-k) A(n-1,k-1)."""
    row = [1]
    for m in range(1, n + 1):
        prev = row + [0]
        row = [(k + 1) * prev[k] + (m - k) * (prev[k - 1] if k else 0) for k in range(m + 1)]
    return row + [0] * (n + 1 - len(row))


def a_table_text(out: str, n: int) -> None:
    """`table a-coeffs --n N`: column 0 holds the Eulerian numbers, and
    column m sums to n! at m = 0 and to 0 at m >= 1."""
    lines = out.strip().splitlines()
    header = lines[0].split()
    require(header[0] == "k\\m" and header[1:] == [str(m) for m in range(n + 1)], "bad header")
    require(len(lines) == n + 2, f"expected {n + 1} rows, got {len(lines) - 1}")
    table = []
    for k, line in enumerate(lines[1:]):
        cells = [int(v) for v in line.split()]
        require(cells[0] == k and len(cells) == n + 2, f"bad row {k}")
        table.append(cells[1:])
    require([row[0] for row in table] == eulerian_row(n), "column 0 is not Eulerian")
    for m in range(n + 1):
        want = factorial(n) if m == 0 else 0
        require(sum(row[m] for row in table) == want, f"column {m} does not sum to {want}")


# ---------------------------------------------------------------------------
# expansions


def _check_genfun(n: int, coeffs: dict[tuple[int, ...], dict[tuple[int, int], int]]) -> None:
    require(sorted(coeffs) == sorted(partitions(n)), "shapes differ from the partitions of n")
    by_des = [0] * n
    for lam, poly in coeffs.items():
        require(all(c > 0 for c in poly.values()), f"non-positive coefficient at {lam}")
        at_t1: list[int] = []
        marginal = [0] * n
        for (qd, td), c in poly.items():
            at_t1 = padd(at_t1, shift([c], qd))
            require(td < n, f"t-degree {td} at {lam}")
            marginal[td] += c
        hook_poly = [1]
        for h in hooks(lam):
            hook_poly = pmul(hook_poly, [1] * h)
        require(pmul(at_t1, hook_poly) == shift(q_fact(n), n_stat(lam)),
                f"t = 1 specialisation at {lam} is not q^n(l) [n]!/prod [h]")
        f = hook_length_count(lam)
        require(sum(marginal) == f, f"q = t = 1 value at {lam} is not f^lambda = {f}")
        for d in range(n):
            by_des[d] += f * marginal[d]
    require(by_des == eulerian_row(n)[:n], "sum of f^lambda times the t-marginal is not Eulerian")


def genfun_json(out: str, n: int) -> None:
    """`expand genfun --n N --format json`."""
    blob = json.loads(out)
    require(blob.get("n") == n and blob.get("q") is True, "n or q flag not echoed")
    coeffs = {}
    for entry in blob["schur"]:
        lam = parse_shape(entry["partition"])
        require(lam not in coeffs, f"shape {lam} listed twice")
        poly = {}
        for qd, td, c in entry["coeff"]:
            require((qd, td) not in poly, f"term repeated at {lam}")
            poly[(qd, td)] = c
        coeffs[lam] = poly
    _check_genfun(n, coeffs)


def genfun_text(out: str, n: int) -> None:
    """`expand genfun --n N`: lines "<shape>: <(q, t) polynomial>"."""
    coeffs = {}
    for line in out.strip().splitlines():
        shape, _, poly = line.partition(": ")
        lam = parse_shape(shape)
        require(lam not in coeffs, f"shape {lam} listed twice")
        coeffs[lam] = parse_qtpoly(poly)
    _check_genfun(n, coeffs)


def _check_schur(lam, n_vars: int, terms: list[tuple[tuple[int, ...], int]]) -> None:
    n = sum(lam)
    orbits: dict[tuple[int, ...], list[int]] = {}
    seen = set()
    for exps, c in terms:
        require(len(exps) == n_vars and min(exps) >= 0 and sum(exps) == n,
                f"bad exponent vector {exps}")
        require(exps not in seen, f"exponent vector {exps} listed twice")
        require(c > 0, f"non-positive coefficient at {exps}")
        seen.add(exps)
        orbits.setdefault(tuple(sorted(exps, reverse=True)), []).append(c)
    for mu, cs in orbits.items():
        size = factorial(n_vars) // prod(factorial(m) for m in Counter(mu).values())
        require(len(cs) == size and len(set(cs)) == 1,
                f"coefficients are not symmetric on the orbit of {mu}")
        require(dominates(lam, tuple(p for p in mu if p)), f"{mu} is not dominated by {lam}")
    if len(lam) <= n_vars:
        top = tuple(lam) + (0,) * (n_vars - len(lam))
        require(orbits.get(top, [0])[0] == 1, "leading coefficient is not 1")
    total = sum(c for _, c in terms)
    require(total == hook_content_count(lam, n_vars), "coefficients do not sum to s_lambda(1^N)")


def schur_json(out: str, shape: str, n_vars: int) -> None:
    """`expand schur --shape S --vars N --format json`."""
    blob = json.loads(out)
    require(blob.get("shape") == shape and blob.get("vars") == n_vars, "shape or vars not echoed")
    terms = [(tuple(t["exponents"]), t["coeff"]) for t in blob["terms"]]
    _check_schur(parse_shape(shape), n_vars, terms)


def schur_text(out: str, shape: str, n_vars: int) -> None:
    """`expand schur --shape S --vars N`: lines "<exponents>: <coeff>"."""
    terms = []
    for line in out.strip().splitlines():
        exps, _, coeff = line.partition(": ")
        terms.append((parse_shape(exps), int(coeff)))
    _check_schur(parse_shape(shape), n_vars, terms)


# ---------------------------------------------------------------------------
# RSK


def word_descents(word) -> set[int]:
    return {i for i in range(1, len(word)) if word[i - 1] > word[i]}


def longest_increasing(word) -> int:
    tails: list[int] = []
    for x in word:
        i = bisect_left(tails, x)
        tails[i:i + 1] = [x]
    return len(tails)


def _standard_rows(text: str, n: int) -> list[list[int]]:
    rows = [[int(v) for v in row.split(",")] for row in text.split("/")]
    require(sorted(v for row in rows for v in row) == list(range(1, n + 1)),
            f"{text!r} is not filled with 1..{n}")
    for j, row in enumerate(rows):
        require(all(a < b for a, b in zip(row, row[1:])), f"row {j + 1} of {text!r} decreases")
        if j:
            require(len(row) <= len(rows[j - 1]), f"{text!r} is not a partition shape")
            require(all(a < b for a, b in zip(rows[j - 1], row)), f"a column of {text!r} decreases")
    return rows


def tableau_descents(rows) -> set[int]:
    row_of = {v: j for j, row in enumerate(rows) for v in row}
    return {i for i in range(1, len(row_of)) if row_of[i + 1] > row_of[i]}


def _brace_set(text: str) -> set[int]:
    require(text.startswith("{") and text.endswith("}"), f"bad set {text!r}")
    return {int(v) for v in text[1:-1].split(",")} if text[1:-1] else set()


def rsk_text(out: str, word: str) -> None:
    """`rsk WORD` on a permutation: P and Q are standard of the same
    shape, the first row is as long as the longest increasing subsequence,
    Des(Q) = Des(word) and Des(P) = Des(word^-1)."""
    perm = [int(v) for v in (word.split(",") if "," in word else word)]
    n = len(perm)
    fields = dict(line.split(": ", 1) for line in out.strip().splitlines())
    P = _standard_rows(fields["P"], n)
    Q = _standard_rows(fields["Q"], n)
    shape = [len(row) for row in P]
    require(shape == [len(row) for row in Q], "P and Q differ in shape")
    require(fields["shape"] == shape_text(shape), "printed shape differs from P")
    require(shape[0] == longest_increasing(perm), "first row is not the longest increasing run")
    inverse = [0] * n
    for i, v in enumerate(perm, 1):
        inverse[v - 1] = i
    require(tableau_descents(Q) == word_descents(perm) == _brace_set(fields["Des(Q)"]),
            "Des(Q) differs from Des(word)")
    require(tableau_descents(P) == word_descents(inverse) == _brace_set(fields["Des(P)"]),
            "Des(P) differs from Des(word^-1)")


# ---------------------------------------------------------------------------
# verify suites and bad input


_REPORT = re.compile(r"^([a-z-]+): (pass|fail) \((.*); (\d+) ms\)$")


def verify_text(out: str, suites: dict[str, dict[str, int]]) -> None:
    """`verify ...`: one "suite: pass (bounds; ms)" line per requested
    suite, in order, echoing every requested bound."""
    reports = []
    for line in out.strip().splitlines():
        match = _REPORT.match(line)
        require(match is not None, f"unexpected line {line!r}")
        bounds = dict(item.split("=", 1) for item in match.group(3).split(", "))
        reports.append((match.group(1), match.group(2), bounds))
    require([r[0] for r in reports] == list(suites), f"suites {[r[0] for r in reports]}")
    for name, status, bounds in reports:
        require(status == "pass", f"suite {name} reports {status}")
        for key, value in suites[name].items():
            require(bounds.get(key) == str(value), f"suite {name} echoes {key}={bounds.get(key)}")


def bad_input(out: str, err: str) -> None:
    """A rejected input: nothing on stdout, a message on stderr, no traceback."""
    require(out == "", "bad input printed a result")
    require("error" in err, "bad input printed no error message")
    require("Traceback" not in err, "bad input raised a traceback")
