"""Exact integer polynomials in q, bivariate (q, t) polynomials, and the
q-integers, q-factorials, and Gaussian binomial coefficients.

Polynomials are computed as values: a polynomial evaluated at q = 2^W
is one Python int whose W-bit slots hold its coefficients (pack), so a
product of polynomials is one big-integer product, read back slot by
slot (unpack).  Evaluation at 2^W is a ring homomorphism, so any ring
expression can be evaluated packed and unpacked once, as long as every
coefficient of the result fits a W-bit signed slot.

A polynomial in q (QPoly) and one in q and t (QTPoly) are only built,
compared, hashed and printed: each is what a value packed at q = 2^W,
and at t = q^S for QTPoly, reads back as, and neither has arithmetic
of its own.

Coefficients are Python ints, so overflow cannot happen.  Division is
left only where the quotient is exact: q_int_at and q_binom_at, which
divide integers at an integer q, and unpack, which divides
2^(W*slots) - 1 by 2^W - 1 for its offset.  q_fact and q_binom are
read back from q_fact_at and q_binom_at, and q_table_at builds the
q-integers and a column of Gaussian binomials at q = 2^W by shifts and
adds alone.
"""

from __future__ import annotations

from math import comb, factorial, prod
from typing import Iterable, Sequence


def pack(coeffs: Sequence[int], width: int) -> int:
    """sum_i coeffs[i] * 2^(width*i): the polynomial at q = 2^width.

    Any integer coefficients are allowed; unpack inverts this when each
    one lies strictly between -2^(width-1) and 2^(width-1).  Up to 64
    slots go by Horner's rule; a longer list packs its two halves and
    joins them with one shift, so that no step shifts the whole growing
    value once per slot.
    """
    if len(coeffs) > 64:
        half = len(coeffs) // 2
        return pack(coeffs[:half], width) + (pack(coeffs[half:], width) << (width * half))
    value = 0
    for c in reversed(coeffs):
        value = (value << width) + c
    return value


def unpack(value: int, width: int) -> list[int]:
    """The coefficients c_0..c_d of the polynomial whose value at
    q = 2^width is `value`, given that |c_i| < 2^(width-1) for all i.

    Under that bound the value lies within half a slot of its leading
    term, so it has between d*width and (d+1)*width - 1 bits, which fixes
    d.  Adding the offset 2^(width-1) to every slot makes every slot a
    digit in 0..2^width - 1 with no borrow between slots; the digits are
    read off and the offset is taken away again, a block of 256 slots at
    a time so that the cost is linear in the slot count.  The list ends
    at the leading coefficient ([0] for the value 0).
    """
    slots = abs(value).bit_length() // width + 1
    half = 1 << (width - 1)
    value += ((1 << (width * slots)) - 1) // ((1 << width) - 1) * half
    mask = (1 << width) - 1
    data = value.to_bytes((width * slots + 7) // 8, "little")
    out = []
    for start in range(0, len(data), 32 * width):  # 256 slots
        block = int.from_bytes(data[start:start + 32 * width], "little")
        for _ in range(min(256, slots - len(out))):
            out.append((block & mask) - half)
            block >>= width
    return out


class QPoly:
    """Integer-coefficient polynomial in q, stored densely by degree:
    built, compared with another QPoly, hashed and printed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def pairs(self) -> list[list[int]]:
        """Nonzero [degree, coefficient] pairs by ascending degree."""
        return [[d, c] for d, c in enumerate(self.coeffs) if c]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"QPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for d, c in enumerate(self.coeffs):
            if not c:
                continue
            if d == 0:
                body = str(abs(c))
            else:
                var = "q" if d == 1 else f"q^{d}"
                body = var if abs(c) == 1 else f"{abs(c)}{var}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)


def q_int(k: int) -> QPoly:
    """[k] = 1 + q + ... + q^(k-1); [0] is the zero polynomial."""
    if k < 0:
        raise ValueError("q-integer of a negative integer")
    return QPoly((1,) * k)


def q_int_at(k: int, q: int) -> int:
    """[k] evaluated at an integer q >= 2, that is (q^k - 1) / (q - 1)."""
    return (q**k - 1) // (q - 1)


def q_binom_at(a: int, b: int, q: int) -> int:
    """[a choose b] evaluated at an integer q >= 2, as
    prod_{i=1..b} (q^(a-b+i) - 1) / (q^i - 1); the quotient is exact
    because the Gaussian binomial has integer coefficients."""
    if not 0 <= b <= a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    num = den = 1
    for i in range(1, b + 1):
        num *= q ** (a - b + i) - 1
        den *= q**i - 1
    return num // den


def q_table_at(n: int, width: int) -> tuple[list[int], list[int]]:
    """The q-integers [0]..[2n+1] and the Gaussian binomials
    [a choose n] for a = 0..2n (0 for a < n), at q = 2^width.

    Only shifts and adds: [f+1] = q [f] + 1, and the binomials advance a
    row [a choose 0..n] at a time by the q-Pascal rule
    [a choose b] = [a-1 choose b-1] + q^b [a-1 choose b].
    """
    ints = [0]
    for _ in range(2 * n + 1):
        ints.append((ints[-1] << width) + 1)
    row = [1] + [0] * n  # [0 choose b] for b = 0..n
    binoms = [row[n]]
    for a in range(1, 2 * n + 1):
        for b in range(min(a, n), 0, -1):
            row[b] = row[b - 1] + (row[b] << (width * b))
        binoms.append(row[n])
    return ints, binoms


def q_fact_at(k: int, q: int) -> int:
    """[k]! = [1][2]...[k] evaluated at an integer q >= 2."""
    return prod(q_int_at(i, q) for i in range(1, k + 1))


def q_fact(k: int) -> QPoly:
    """[k]!, read back from its value at q = 2^W: its coefficients are
    nonnegative and sum to k!, so W = bits(k!) plus a sign bit holds
    each one."""
    if k < 0:
        raise ValueError("q-factorial of a negative integer")
    width = factorial(k).bit_length() + 1
    return QPoly(unpack(q_fact_at(k, 1 << width), width))


def q_binom(a: int, b: int) -> QPoly:
    """Gaussian binomial [a choose b], read back from its value at
    q = 2^W: its coefficients are nonnegative and sum to C(a, b), so
    W = bits(C(a, b)) plus a sign bit holds each one."""
    if not 0 <= b <= a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    width = comb(a, b).bit_length() + 1
    return QPoly(unpack(q_binom_at(a, b, 1 << width), width))


class QTPoly:
    """Integer polynomial in q and t, stored sparsely by (q-deg, t-deg):
    built, compared with another QTPoly, hashed and printed."""

    __slots__ = ("coeffs",)

    def __init__(self, terms=None) -> None:
        data: dict[tuple[int, int], int] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, dict) else terms
            for (qd, td), c in items:
                if qd < 0 or td < 0:
                    raise ValueError("degrees must be nonnegative")
                new = data.get((qd, td), 0) + int(c)
                if new:
                    data[(qd, td)] = new
                else:
                    data.pop((qd, td), None)
        self.coeffs = data

    @classmethod
    def term(cls, qdeg: int, tdeg: int, coeff: int = 1) -> "QTPoly":
        return cls({(qdeg, tdeg): coeff})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def triples(self) -> list[list[int]]:
        """Nonzero [q-degree, t-degree, coefficient] triples, sorted."""
        return [[qd, td, self.coeffs[(qd, td)]] for qd, td in sorted(self.coeffs)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QTPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        return f"QTPoly({self.coeffs!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for (qd, td) in sorted(self.coeffs):
            c = self.coeffs[(qd, td)]
            atoms = []
            if qd:
                atoms.append("q" if qd == 1 else f"q^{qd}")
            if td:
                atoms.append("t" if td == 1 else f"t^{td}")
            body = " ".join(atoms) if atoms else str(abs(c))
            if atoms and abs(c) != 1:
                body = f"{abs(c)} {body}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

