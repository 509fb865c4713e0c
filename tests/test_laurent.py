"""Ring laws and the exact-division / substitution helpers."""

import pytest
from hypothesis import given, strategies as st

from graphhom.errors import DeconvolutionError, TagMismatch
from graphhom.laurent import (
    Laurent,
    T,
    UT,
    Z,
    alexander_to_conway,
    euler_substitute,
    exact_divide,
    normalize_alexander,
)


def poly_t(draw_terms):
    return Laurent(T, draw_terms)


laurent_t = st.dictionaries(
    st.tuples(st.integers(min_value=-8, max_value=8)),
    st.integers(min_value=-5, max_value=5),
    max_size=6,
).map(lambda d: Laurent(T, d))


@given(laurent_t, laurent_t, laurent_t)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + Laurent.zero(T) == p
    assert p * Laurent.one(T) == p
    assert p - p == Laurent.zero(T)


@given(laurent_t)
def test_pow_matches_repeated_multiplication(p):
    acc = Laurent.one(T)
    for k in range(4):
        assert p ** k == acc
        acc = acc * p


@given(laurent_t)
def test_json_round_trip(p):
    assert Laurent.from_json(T, p.to_json()) == p


def test_zero_terms_dropped():
    p = Laurent(T, {(2,): 1, (0,): 0})
    assert (0,) not in p.terms
    assert p == Laurent.term(T, (2,))


def test_tag_mismatch():
    with pytest.raises(TagMismatch):
        Laurent.one(T) + Laurent.one(Z)
    with pytest.raises(TagMismatch):
        Laurent.one(T) * Laurent.one(UT)


def test_shift_and_span():
    p = Laurent(T, {(2,): 1, (-4,): 3})
    assert p.degree_span() == (-4, 2)
    q = p.shift((1,))
    assert q.degree_span() == (-3, 3)
    assert q.coeff((3,)) == 1


def test_normalize_alexander_centers_and_signs():
    # t - 1 + t^-1 shifted up by t^3, negated
    p = Laurent(T, {(8,): -1, (6,): 1, (4,): -1})
    n = normalize_alexander(p)
    assert n == Laurent(T, {(2,): 1, (0,): -1, (-2,): 1})
    # already centered half-integer support: t^(1/2) - t^(-1/2)
    q = Laurent(T, {(1,): -1, (-1,): 1})
    assert normalize_alexander(q) == Laurent(T, {(1,): 1, (-1,): -1})
    assert normalize_alexander(Laurent.zero(T)).is_zero()


def conway_to_alexander(nabla):
    """Substitute z = t^(1/2) - t^(-1/2) into a skein polynomial: the
    skein route to the Alexander polynomial, kept as the oracle for the
    Wirtinger route of ``invariants.alexander``."""
    if nabla.vars != Z:
        raise TagMismatch("expected a polynomial in z")
    z_image = Laurent(T, {(1,): 1, (-1,): -1})
    out = Laurent.zero(T)
    for (dz,), coeff in nabla.terms.items():
        if dz % 2 != 0 or dz < 0:
            raise ValueError("skein polynomials have nonnegative integer z powers")
        out = out + (z_image ** (dz // 2)).scale(coeff)
    return out


def test_conway_to_alexander_on_known_skeins():
    # trefoil: z^2 + 1 becomes t - 1 + t^-1
    nabla = Laurent(Z, {(4,): 1, (0,): 1})
    assert conway_to_alexander(nabla) == Laurent(T, {(2,): 1, (0,): -1, (-2,): 1})
    # hopf: z becomes t^(1/2) - t^(-1/2)
    assert conway_to_alexander(Laurent(Z, {(2,): 1})) == Laurent(T, {(1,): 1, (-1,): -1})


skein_z = st.dictionaries(
    st.integers(min_value=0, max_value=8), st.integers(min_value=-5, max_value=5), max_size=6
).map(lambda d: Laurent(Z, {(2 * k,): c for k, c in d.items()}))


@given(skein_z)
def test_alexander_to_conway_inverts_conway_to_alexander(nabla):
    assert alexander_to_conway(conway_to_alexander(nabla)) == nabla


def test_alexander_to_conway_rejects_what_is_not_a_polynomial_in_z():
    # t^(1/2) + t^(-1/2) is symmetric but of the wrong parity; t - 1 is
    # not symmetric at all
    with pytest.raises(ValueError):
        alexander_to_conway(Laurent(T, {(1,): 1, (-1,): 1}))
    with pytest.raises(ValueError):
        alexander_to_conway(Laurent(T, {(2,): 1, (0,): -1}))


def test_euler_substitute_alternates_on_integer_gradings():
    # generators at (m, a) = (0, 0), (1, 2), (2, 4) with doubled coords
    p = Laurent(UT, {(0, 0): 1, (2, 2): 1, (4, 4): 1})
    assert euler_substitute(p) == Laurent(T, {(0,): 1, (2,): -1, (4,): 1})
    # ceil convention: doubled grading -1 and 1 both sit in the m=1 class
    assert euler_substitute(Laurent(UT, {(1, 0): 1})) == Laurent(T, {(0,): -1})


@given(laurent_t, laurent_t)
def test_exact_divide_inverts_multiplication(p, d):
    if d.is_zero():
        return
    q = exact_divide(p * d, d, require_nonnegative=False)
    assert q == p


def test_exact_divide_failure():
    p = Laurent(T, {(0,): 1})
    d = Laurent(T, {(2,): 1, (0,): 1})
    with pytest.raises(DeconvolutionError):
        exact_divide(p, d)


def test_repr_is_stable():
    p = Laurent(T, {(3,): 2, (0,): -1, (-2,): 1})
    assert repr(p) == "t^-1 -1 +2*t^(3/2)"
