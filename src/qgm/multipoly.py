"""Sparse exact polynomial arithmetic in three variables x, y, z.

A polynomial is a sorted map from exponent triples to nonzero int or
Fraction coefficients.  Degrees stay tiny here (at most three), so the
representation favors simplicity.  The public constructor checks every
term; internal results are trusted and built by ``_sorted``.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlin import _check_int, _rat


class TriPoly:
    """Polynomial in Q[x, y, z] keyed by exponent triples."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        data = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for exps, c in items:
            ex = tuple(_check_int(e) for e in exps)
            if len(ex) != 3 or any(e < 0 for e in ex):
                raise ValueError(f"bad exponent triple {exps!r}")
            data[ex] = data.get(ex, 0) + (c if type(c) is int else _rat(c))
        self.coeffs = TriPoly._sorted(data).coeffs

    @classmethod
    def _sorted(cls, data) -> "TriPoly":
        """Trusted constructor from exact terms: drops zeros and sorts."""
        p = object.__new__(cls)
        p.coeffs = {k: v for k, v in sorted(data.items()) if v}
        return p

    @classmethod
    def zero(cls) -> "TriPoly":
        return cls()

    @classmethod
    def variable(cls, name: str) -> "TriPoly":
        try:
            i = "xyz".index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None
        e = [0, 0, 0]
        e[i] = 1
        return cls([(tuple(e), 1)])

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_homogeneous(self):
        """Total degree when all terms share one, else None (zero counts
        as homogeneous of degree None)."""
        degs = {sum(e) for e in self.coeffs}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else None

    def __add__(self, other):
        if not isinstance(other, TriPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return TriPoly._sorted(out)

    def __neg__(self):
        return TriPoly._sorted({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, TriPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = out.get(e, 0) + c1 * c2
        return TriPoly._sorted(out)

    def scale(self, c) -> "TriPoly":
        c = c if type(c) is int else _rat(c)
        return TriPoly._sorted({e: c * v for e, v in self.coeffs.items()})

    def eval_at(self, point):
        """Exact evaluation at a rational point (x, y, z)."""
        px, py, pz = (_rat(v) for v in point)
        total = Fraction(0)
        for (a, b, c), coeff in self.coeffs.items():
            total += coeff * px ** a * py ** b * pz ** c
        return total

    def coefficient(self, exps):
        return self.coeffs.get(tuple(exps), 0)

    def __eq__(self, other):
        return isinstance(other, TriPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "TriPoly(0)"
        parts = []
        for (a, b, c), coeff in self.coeffs.items():
            mono = "".join(f"{v}^{e}" if e > 1 else v
                           for v, e in zip("xyz", (a, b, c)) if e)
            parts.append(f"{coeff}*{mono}" if mono else f"{coeff}")
        return "TriPoly(" + " + ".join(parts) + ")"


def monomials_of_degree(d: int):
    """All exponent triples of total degree d, in lexicographic order."""
    out = []
    for a in range(d, -1, -1):
        for b in range(d - a, -1, -1):
            out.append((a, b, d - a - b))
    return sorted(out)
