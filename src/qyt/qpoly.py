"""Exact integer polynomials in q, and in q and t, packed into single
ints, with the q-integers, q-factorials and Gaussian binomials at an
integer q.

Polynomials are computed as values: a polynomial evaluated at q = 2^W
is one Python int whose W-bit slots hold its coefficients (pack), so a
product of polynomials is one big-integer product, read back slot by
slot (unpack).  Evaluation at 2^W is a ring homomorphism, so any ring
expression can be evaluated packed and unpacked once, as long as every
coefficient of the result fits a W-bit signed slot.  A polynomial in q
and t is packed at t = q^S as well, S above every q-degree.

Packed is such a value with its width, and its stride S when it has a
t: it is only compared, listed and printed, and has no arithmetic of
its own.

Coefficients are Python ints, so overflow cannot happen.  Division is
left only where the quotient is exact: q_int_at, which divides
q^k - 1 by q - 1 at an integer q, and unpack, which divides
2^(W*slots) - 1 by 2^W - 1 for its offset.  q_table_at builds the
q-integers and the Gaussian binomials at q = 2^W by shifts and adds
alone.
"""

from __future__ import annotations

from math import prod
from typing import Sequence


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


def _power(var: str, degree: int) -> str:
    """var^degree as a factor of a printed term: "" for degree 0."""
    return "" if degree == 0 else var if degree == 1 else f"{var}^{degree}"


class Packed:
    """A polynomial packed at q = 2^width, and at t = q^stride when it has
    a stride, so that slot d * stride + e holds the coefficient of q^e t^d.
    Equal to another when value, width and stride are; listed and printed
    as the coefficients its slots read back as (unpack), which must each
    fit a signed slot of the width."""

    __slots__ = ("value", "width", "stride")

    def __init__(self, value: int, width: int, stride: int | None = None) -> None:
        self.value = value
        self.width = width
        self.stride = stride

    def __eq__(self, other) -> bool:
        if not isinstance(other, Packed):
            return NotImplemented
        return ((self.value, self.width, self.stride)
                == (other.value, other.width, other.stride))

    def pairs(self) -> list[list[int]]:
        """Nonzero [degree, coefficient] pairs by ascending degree."""
        return [[d, c] for d, c in enumerate(unpack(self.value, self.width)) if c]

    def triples(self) -> list[list[int]]:
        """Nonzero [q-degree, t-degree, coefficient] triples, sorted."""
        stride = self.stride
        return sorted([s % stride, s // stride, c]
                      for s, c in enumerate(unpack(self.value, self.width)) if c)

    def __str__(self) -> str:
        """Terms by ascending degree, by q-degree then t-degree with a
        stride: "1 - 2q^2 + q^3" in q, "2 t + q^2 t^3" in q and t."""
        if self.stride is None:
            gap, terms = "", [(_power("q", d), c) for d, c in self.pairs()]
        else:
            gap, terms = " ", [(f"{_power('q', qd)} {_power('t', td)}".strip(), c)
                               for qd, td, c in self.triples()]
        chunks = []
        for atoms, c in terms:
            if not atoms:
                body = str(abs(c))
            elif abs(c) == 1:
                body = atoms
            else:
                body = f"{abs(c)}{gap}{atoms}"
            if chunks:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
            else:
                chunks.append(body if c > 0 else f"-{body}")
        return " ".join(chunks) or "0"


def q_int_at(k: int, q: int) -> int:
    """[k] evaluated at an integer q >= 2, that is (q^k - 1) / (q - 1)."""
    return (q**k - 1) // (q - 1)


def q_table_at(n: int, width: int) -> tuple[list[int], list[list[int]]]:
    """The q-integers [0]..[2n+1] and the Gaussian binomials
    rows[a][b] = [a choose b] for a = 0..2n and b = 0..n (0 for b > a),
    at q = 2^width.

    Only shifts and adds: [f+1] = q [f] + 1, and each row of binomials
    comes from the one before by the q-Pascal rule
    [a choose b] = [a-1 choose b-1] + q^b [a-1 choose b].
    """
    ints = [0]
    for _ in range(2 * n + 1):
        ints.append((ints[-1] << width) + 1)
    rows = [[1] + [0] * n]  # [0 choose b] for b = 0..n
    for _ in range(2 * n):
        row = rows[-1]
        rows.append([1] + [row[b - 1] + (row[b] << (width * b)) for b in range(1, n + 1)])
    return ints, rows


def q_fact_at(k: int, q: int) -> int:
    """[k]! = [1][2]...[k] evaluated at an integer q >= 2."""
    return prod(q_int_at(i, q) for i in range(1, k + 1))
