"""Finite fields GF(p^t) in a polynomial basis.

Elements are integers 0 .. p^t - 1 encoding coefficient vectors in base p,
constant term in the least significant digit.  GF(p) is the integers mod p.
For t > 1 the defining polynomial comes from the fixed table below, as a
coefficient tuple, constant term first, of length t + 1 with leading
coefficient 1; an order with no entry raises NoDefaultIrreducible.  The
tests check that every entry gives a field.

Irreducible polynomials (the classical low-weight choices):

    GF(4)   x^2 + x + 1
    GF(8)   x^3 + x + 1
    GF(9)   x^2 + 1
    GF(16)  x^4 + x + 1
    GF(25)  x^2 + x + 1
    GF(27)  x^3 + 2x + 1
    GF(32)  x^5 + x^2 + 1
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NoDefaultIrreducible, NoField

_DEFAULT_IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (1, 1, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q: int) -> tuple[int, int]:
    """Factor q as p^t with p prime, or raise NoField."""
    if q < 2:
        raise NoField(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            t = 0
            m = q
            while m % p == 0:
                m //= p
                t += 1
            if m != 1 or not is_prime(p):
                raise NoField(f"{q} is not a prime power")
            return p, t
    raise NoField(f"{q} is not a prime power")


@dataclass(frozen=True)
class FieldSpec:
    """An explicit GF(p^t) with tables for the two binary operations."""

    p: int
    t: int
    poly: tuple[int, ...]
    add: tuple[tuple[int, ...], ...] = field(repr=False)
    mul: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def order(self) -> int:
        return self.p**self.t


def _digits(a: int, p: int, t: int) -> list[int]:
    return [(a // p**i) % p for i in range(t)]


def _undigits(ds: list[int], p: int) -> int:
    return sum(d * p**i for i, d in enumerate(ds))


def _raw_add(a: int, b: int, p: int, t: int) -> int:
    da, db = _digits(a, p, t), _digits(b, p, t)
    return _undigits([(x + y) % p for x, y in zip(da, db)], p)


def _raw_mul(a: int, b: int, p: int, t: int, poly: tuple[int, ...]) -> int:
    da, db = _digits(a, p, t), _digits(b, p, t)
    prod = [0] * (2 * t - 1) if t > 1 else [0]
    for i, x in enumerate(da):
        if x:
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
    # reduce modulo the defining polynomial (monic of degree t)
    for k in range(len(prod) - 1, t - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(t):
                prod[k - t + i] = (prod[k - t + i] - c * poly[i]) % p
    return _undigits(prod[:t], p)


def field_from_order(q: int) -> FieldSpec:
    """GF(q) for q a prime power, with its polynomial from the default table."""
    p, t = prime_power(q)
    if t == 1:
        poly: tuple[int, ...] = (0, 1)  # x; no product needs reducing when t = 1
    elif q in _DEFAULT_IRREDUCIBLE:
        poly = _DEFAULT_IRREDUCIBLE[q]
    else:
        raise NoDefaultIrreducible(f"no default defining polynomial for GF({q})")
    add = tuple(tuple(_raw_add(a, b, p, t) for b in range(q)) for a in range(q))
    mul = tuple(tuple(_raw_mul(a, b, p, t, poly) for b in range(q)) for a in range(q))
    return FieldSpec(p=p, t=t, poly=poly, add=add, mul=mul)
