"""Exact Laurent polynomials with half-integer exponents.

Every exponent is stored doubled, so ``t^(1/2)`` has stored exponent 1 and
``t^3`` has stored exponent 6.  This keeps all arithmetic in plain integers
while supporting the half-integer gradings that show up for links with an
even number of components.  Coefficients are arbitrary-precision ints.

Polynomials are immutable.  One- and two-variable flavours share the same
class; the variable tuple acts as a tag and mixing tags raises TagMismatch.

``alexander_to_conway`` rewrites a polynomial in t in the Conway variable
z = t^(1/2) - t^(-1/2).
"""

from __future__ import annotations

from typing import Dict, Tuple

from .errors import DeconvolutionError, TagMismatch

Monomial = Tuple[int, ...]


class Laurent:
    __slots__ = ("vars", "terms")

    def __init__(self, variables: Tuple[str, ...], terms: Dict[Monomial, int] | None = None):
        self.vars = tuple(variables)
        clean: Dict[Monomial, int] = {}
        if terms:
            for expo, coeff in terms.items():
                if coeff == 0:
                    continue
                expo = tuple(expo)
                if len(expo) != len(self.vars):
                    raise ValueError("monomial arity does not match variable count")
                clean[expo] = clean.get(expo, 0) + coeff
        self.terms = {e: c for e, c in clean.items() if c != 0}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Tuple[str, ...]) -> "Laurent":
        return cls(variables, {})

    @classmethod
    def one(cls, variables: Tuple[str, ...]) -> "Laurent":
        return cls(variables, {(0,) * len(variables): 1})

    @classmethod
    def term(cls, variables: Tuple[str, ...], doubled_exponents: Monomial, coeff: int = 1) -> "Laurent":
        return cls(variables, {tuple(doubled_exponents): coeff})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Laurent") -> None:
        if self.vars != other.vars:
            raise TagMismatch(f"cannot combine polynomials over {self.vars} and {other.vars}")

    def __add__(self, other: "Laurent") -> "Laurent":
        self._check(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms.get(expo, 0) + coeff
        return Laurent(self.vars, terms)

    def __neg__(self) -> "Laurent":
        return Laurent(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        self._check(other)
        terms: Dict[Monomial, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return Laurent(self.vars, terms)

    def __pow__(self, n: int) -> "Laurent":
        if n < 0:
            raise ValueError("negative powers are only defined for monomials; invert by hand")
        result = Laurent.one(self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, k: int) -> "Laurent":
        return Laurent(self.vars, {e: c * k for e, c in self.terms.items()})

    def shift(self, doubled_exponents: Monomial) -> "Laurent":
        """Multiply by the monomial with the given doubled exponents."""
        off = tuple(doubled_exponents)
        return Laurent(self.vars, {tuple(a + b for a, b in zip(e, off)): c for e, c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Laurent) and self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, tuple(sorted(self.terms.items()))))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, doubled_exponents: Monomial) -> int:
        return self.terms.get(tuple(doubled_exponents), 0)

    def degree_span(self, axis: int = 0) -> Tuple[int, int]:
        """Min and max doubled exponent along one variable axis."""
        if not self.terms:
            raise ValueError("zero polynomial has no degree span")
        exps = [e[axis] for e in self.terms]
        return min(exps), max(exps)

    # -- rendering ---------------------------------------------------------

    def _fmt_exp(self, doubled: int) -> str:
        if doubled % 2 == 0:
            return str(doubled // 2)
        return f"({doubled}/2)"

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for expo in sorted(self.terms):
            coeff = self.terms[expo]
            mono = []
            for var, e in zip(self.vars, expo):
                if e == 0:
                    continue
                if e == 2:
                    mono.append(var)
                else:
                    mono.append(f"{var}^{self._fmt_exp(e)}")
            body = "*".join(mono)
            if not body:
                bits.append(f"{coeff:+d}")
            elif coeff == 1:
                bits.append(f"+{body}")
            elif coeff == -1:
                bits.append(f"-{body}")
            else:
                bits.append(f"{coeff:+d}*{body}")
        text = " ".join(bits)
        return text[1:] if text.startswith("+") else text

    def to_json(self) -> Dict[str, int]:
        """Map doubled-exponent keys to coefficients, keys comma joined."""
        return {",".join(str(e) for e in expo): coeff for expo, coeff in sorted(self.terms.items())}

    @classmethod
    def from_json(cls, variables: Tuple[str, ...], data: Dict[str, int]) -> "Laurent":
        terms = {tuple(int(p) for p in key.split(",")): int(coeff) for key, coeff in data.items()}
        return cls(variables, terms)

    def sort_key(self) -> Tuple:
        """Total-order key: variables, then sorted (exponent, coeff) pairs."""
        return (self.vars, tuple(sorted(self.terms.items())))


# Fixed variable tags used across the package.
T = ("t",)        # Alexander / Jones style, half-integer powers allowed
Z = ("z",)        # skein variable, integer powers only in practice
Q = ("q",)        # quantum grading variable
UT = ("u", "t")   # bigraded Poincare series: u tracks the homological axis
U = ("u",)


def normalize_alexander(p: Laurent) -> Laurent:
    """Symmetrize an Alexander polynomial representative.

    Multiplies by a half-integer power of the variable so the support is
    centered about exponent zero, then fixes the sign so the top
    coefficient is positive.  The zero polynomial passes through.
    """
    if p.is_zero():
        return p
    if len(p.vars) != 1:
        raise TagMismatch("normalize_alexander expects a single-variable polynomial")
    lo, hi = p.degree_span()
    # Genuine Alexander representatives have pure-parity support, so lo+hi
    # is even and the center lands on the doubled lattice.  Floor division
    # still gives a canonical answer for degenerate inputs.
    p = p.shift((-((lo + hi) // 2),))
    if p.terms[max(p.terms)] < 0:
        p = -p
    return p


def alexander_to_conway(p: Laurent) -> Laurent:
    """The polynomial in z = t^(1/2) - t^(-1/2) that ``p`` equals: each
    top term c t^(k/2) left is that of c z^k, which is taken off.  A ``p``
    that is no such polynomial leaves a negative degree: ValueError."""
    terms: Dict[Monomial, int] = {}
    while p:
        (top,), coeff = max(p.terms.items())
        if top < 0:
            raise ValueError("not a polynomial in z = t^(1/2) - t^(-1/2)")
        terms[(2 * top,)] = coeff
        p = p - (Laurent(T, {(1,): 1, (-1,): -1}) ** top).scale(coeff)
    return Laurent(Z, terms)


def euler_substitute(p: Laurent) -> Laurent:
    """Collapse the u axis of a bigraded series at u = -1: a generator at
    doubled homological grading m contributes the sign (-1)^ceil(m/2).
    For even m this is the usual alternating sum; odd m (half-integer
    gradings, as links with an even component count have) takes the
    uniform half-step shift that the ceiling gives."""
    if p.vars != UT:
        raise TagMismatch("euler_substitute expects a (u, t) series")
    out: Dict[Monomial, int] = {}
    for (m, a), coeff in p.terms.items():
        sign = 1 if (-(-m // 2)) % 2 == 0 else -1  # ceil division on ints
        out[(a,)] = out.get((a,), 0) + sign * coeff
    return Laurent(T, out)


def exact_divide(p: Laurent, d: Laurent, require_nonnegative: bool = True) -> Laurent:
    """Divide p by d exactly in the Laurent ring, or raise.

    Terms are consumed from the lexicographically largest exponent down.
    Used to strip stabilization factors off Poincare series; by
    construction those quotients exist and have nonnegative coefficients,
    so any failure is reported as a DeconvolutionError.
    """
    if p.vars != d.vars:
        raise TagMismatch("dividend and divisor must share variables")
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lead = max(d.terms)
    lead_coeff = d.terms[lead]
    quotient: Dict[Monomial, int] = {}
    rem = dict(p.terms)
    while rem:
        top = max(rem)
        if rem[top] % lead_coeff != 0:
            raise DeconvolutionError(f"leading coefficient {rem[top]} not divisible by {lead_coeff}")
        qc = rem[top] // lead_coeff
        qe = tuple(a - b for a, b in zip(top, lead))
        if require_nonnegative and qc < 0:
            raise DeconvolutionError("quotient acquired a negative coefficient")
        quotient[qe] = quotient.get(qe, 0) + qc
        for de, dc in d.terms.items():
            key = tuple(a + b for a, b in zip(qe, de))
            val = rem.get(key, 0) - qc * dc
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return Laurent(p.vars, quotient)
