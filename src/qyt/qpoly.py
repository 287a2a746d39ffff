"""Exact integer polynomials in q, and in q and t, packed into single
ints, and the one table of q-integers, q-factorials and Gaussian
binomials at q = 2^W, which at W = 0 is the table at q = 1.  This
module alone decides the packed layout: slot widths (slot_width), slot
counts (slot_count) and t-strides (t_stride).

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

Coefficients are Python ints, so overflow cannot happen.  The only
division is unpack's offset, 2^(W*slots) - 1 over 2^W - 1, which is
exact; q_table_at needs only shifts, adds and products.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence


def slot_width(*bounds: int) -> int:
    """A slot width W at which two sides may be compared packed at
    q = 2^W instead of as polynomials, given bounds on the sum of the
    absolute values of the coefficients of either side.  If those are
    below 2^(W-1), the coefficients of the difference D of the sides are
    below 2^W, and D(2^W) = 0 forces d_0 = 0 (2^W divides it), then
    d_1 = 0, and so on: equal packed ints mean equal polynomials.  So W
    is a sign bit plus the bits of the largest bound.  Shifts by q^e
    move slots but do not change them."""
    return max(bounds).bit_length() + 1


def slot_count(value: int, width: int) -> int:
    """d + 1 for the polynomial of degree d packed at q = 2^width as
    `value`, each coefficient fitting a signed slot: the value lies within
    half a slot of its leading term, so it has d * width to
    (d + 1) * width - 1 bits."""
    return abs(value).bit_length() // width + 1


def t_stride(rows: Iterable[int], width: int) -> int:
    """A stride S at which `rows`, polynomials in q packed at width, are
    joined as the coefficients of t at t = q^S: one more than their
    largest q-degree (slot_count), so that slot d * S + e holds q^e t^d
    alone.  Sums and int multiples of the rows add no degree."""
    return max(slot_count(row, width) for row in rows)


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

    Under that bound there are slot_count(value, width) slots.  Adding
    the offset 2^(width-1) to every slot makes every slot a digit in
    0..2^width - 1 with no borrow between slots; the digits are read off
    and the offset is taken away again, a block of 256 slots at a time
    so that the cost is linear in the slot count.  The list ends at the
    leading coefficient ([0] for the value 0).
    """
    slots = slot_count(value, width)
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
        """Nonzero [q-degree, t-degree, coefficient] triples, sorted.

        Each t-row is read on its own.  The row of t^d is the value's
        balanced remainder at the step 2^(width * stride), in
        [-2^(step-1), 2^(step-1)): a row whose coefficients fit signed
        slots lies strictly inside that range, and taking it away before
        the shift carries a negative row's borrow into the next.  Only
        the slots from the row's lowest nonzero one to its leading one
        are unpacked, so zero rows and the zero slots around a row cost
        nothing."""
        width, stride = self.width, self.stride
        step = width * stride
        mask, half = (1 << step) - 1, 1 << (step - 1)
        value, out = self.value, []
        for d in range(slot_count(value, step)):
            row = value & mask
            if row >= half:
                row -= 1 << step
            value = (value - row) >> step
            if row:
                low = ((row & -row).bit_length() - 1) // width
                out += [[e, d, c] for e, c in enumerate(unpack(row >> (low * width), width), low)
                        if c]
        return sorted(out)

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


@lru_cache(maxsize=1)
def q_table_at(n: int, width: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple]:
    """(ints, facts, rows) at q = 2^width: ints[f] = [f] for f = 0..2n+1,
    facts[f] = [f]! for f = 0..n and rows[a][b] = [a choose b] for
    a = 0..2n and b = 0..n (0 for b > a), all tuples.  [f+1] = q [f] + 1,
    [f]! = [f-1]! [f], and each row of binomials comes from the one
    before by the q-Pascal rule [a choose b] = [a-1 choose b-1] +
    q^b [a-1 choose b].  Width 0 is q = 1, the ordinary table:
    ints[f] = f, facts[f] = f! and rows[a][b] = C(a, b).  The last table
    is kept: a sweep asks for the tables of one n in a row, at one width
    on honest inputs.
    """
    ints = [0]
    for _ in range(2 * n + 1):
        ints.append((ints[-1] << width) + 1)
    facts = [1]
    for f in range(1, n + 1):
        facts.append(facts[-1] * ints[f])
    rows = [(1,) + (0,) * n]  # [0 choose b] for b = 0..n
    for _ in range(2 * n):
        row = rows[-1]
        rows.append((1, *(row[b - 1] + (row[b] << (width * b)) for b in range(1, n + 1))))
    return tuple(ints), tuple(facts), tuple(rows)
