"""Finite fields GF(p^t) in a polynomial basis.

Elements are integers 0 .. p^t - 1 encoding coefficient vectors in base p,
constant term in the least significant digit.  The defining polynomial is a
coefficient list, constant term first, of length t + 1 with leading
coefficient 1.

Default irreducible polynomials (the classical low-weight choices):

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

from .errors import (
    NoDefaultIrreducible,
    NoField,
    NonPrimeModulus,
    ReduciblePolynomial,
    ZeroInverse,
)

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


def _poly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Division with remainder in GF(p)[x]; b must be nonzero."""
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and _poly_trim(a):
        shift = len(a) - len(b)
        coef = (a[-1] * inv_lead) % p
        q[shift] = coef
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bc) % p
        _poly_trim(a)
    return q, a


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        # all monic polynomials of degree d, low coefficients in base-p counter
        for lo in range(p**d):
            cand = [(lo // p**i) % p for i in range(d)] + [1]
            _, rem = _poly_divmod(list(poly), cand, p)
            if not _poly_trim(rem):
                return False
    return True


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

    def inv(self, a: int) -> int:
        if a % self.order == 0:
            raise ZeroInverse("0 has no multiplicative inverse")
        return pow_element(self, a, self.order - 2)

    def neg(self, a: int) -> int:
        digits = _digits(a, self.p, self.t)
        return _undigits([(-d) % self.p for d in digits], self.p)


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


def field_make(p: int, t: int, poly: tuple[int, ...] | list[int] | None = None) -> FieldSpec:
    """Build GF(p^t); poly is constant-first with leading coefficient 1."""
    if not is_prime(p):
        raise NonPrimeModulus(f"{p} is not prime")
    if t < 1:
        raise NoField("extension degree must be >= 1")
    q = p**t
    if poly is None:
        if t == 1:
            poly_t: tuple[int, ...] = (0, 1)  # x, irrelevant for t = 1
        elif q in _DEFAULT_IRREDUCIBLE:
            poly_t = _DEFAULT_IRREDUCIBLE[q]
        else:
            raise NoDefaultIrreducible(f"no default defining polynomial for GF({q})")
    else:
        poly_t = tuple(x % p for x in poly[:-1]) + (poly[-1] % p,)
        if len(poly_t) != t + 1 or poly_t[-1] != 1:
            raise ReduciblePolynomial("defining polynomial must be monic of degree t")
        if t > 1 and not _is_irreducible(poly_t, p):
            raise ReduciblePolynomial(f"{poly_t} is reducible over GF({p})")
    if t > 1 and poly is None and not _is_irreducible(poly_t, p):
        # defensive: the built-in table should never trip this
        raise ReduciblePolynomial(f"default polynomial for GF({q}) is reducible")

    if t == 1:
        add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
        mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
    else:
        add = tuple(tuple(_raw_add(a, b, p, t) for b in range(q)) for a in range(q))
        mul = tuple(tuple(_raw_mul(a, b, p, t, poly_t) for b in range(q)) for a in range(q))
    return FieldSpec(p=p, t=t, poly=poly_t, add=add, mul=mul)


def field_from_order(q: int) -> FieldSpec:
    """GF(q) for q a prime power, using the default polynomial table."""
    p, t = prime_power(q)
    return field_make(p, t)


def pow_element(spec: FieldSpec, a: int, e: int) -> int:
    if e < 0:
        a = spec.inv(a)
        e = -e
    result = 1 % spec.order
    base = a % spec.order
    mul = spec.mul
    while e:
        if e & 1:
            result = mul[result][base]
        base = mul[base][base]
        e >>= 1
    return result
