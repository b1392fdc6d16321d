import itertools

import pytest
from hypothesis import example, given, strategies as st

from charrig.lattice import (
    add,
    canonical,
    dominance_leq,
    dominant_weights_up_to,
    dual_weight,
    from_fundamental,
    is_dominant,
    orbit,
    orbit_size,
)
from charrig.oracle import freudenthal_character
from charrig.ring import CharElement, expand, orbit_sum, unit
from product_route import e_coefficient


def w(l, *coords):
    return from_fundamental(l, coords)


def dim(f):
    """Total number of e-basis terms counted with multiplicity."""
    return sum(c * orbit_size(mu) for mu, c in f.terms.items())


def naive_product(f, g):
    """Reference product by two-orbit convolution: e(x + y) for every x in
    the orbit of a key of f and y in the orbit of a key of g, collected
    on the dominant points."""
    conv = {}
    for mu, a in f.terms.items():
        for nu, b in g.terms.items():
            for x in orbit(mu):
                for y in orbit(nu):
                    z = canonical(tuple(p + q for p, q in zip(x, y)))
                    conv[z] = conv.get(z, 0) + a * b
    return CharElement(f.rank, {z: c for z, c in conv.items() if is_dominant(z)})


# height bounds that keep the convolution reference fast up to A5
PRODUCT_BOUNDS = {1: 12, 2: 16, 3: 20, 4: 24, 5: 30}


@st.composite
def product_factors(draw):
    """(f, g) at a rank from A1 to A5: f an integer combination of orbit
    sums, negative coefficients included; g another one, the unit, f
    itself, or f's dual, whose keys have f's orbit sizes."""
    l = draw(st.integers(1, 5))
    weights = dominant_weights_up_to(l, PRODUCT_BOUNDS[l])
    element = st.lists(
        st.tuples(st.sampled_from(weights), st.integers(-3, 3).filter(bool)),
        min_size=1,
        max_size=3,
    ).map(lambda pairs: sum((orbit_sum(mu) * c for mu, c in pairs), CharElement(l, {})))
    f = draw(element)
    kind = draw(st.sampled_from(["other", "unit", "same", "dual"]))
    if kind == "other":
        g = draw(element)
    elif kind == "unit":
        g = unit(l)
    elif kind == "same":
        g = f
    else:
        g = CharElement(l, {dual_weight(mu): c for mu, c in f.terms.items()})
    return f, g


def small_orbit_sums(l, max_eps_sum):
    out = []
    for parts in itertools.product(range(max_eps_sum + 1), repeat=l + 1):
        if list(parts) == sorted(parts, reverse=True) and parts[-1] == 0:
            if sum(parts) <= max_eps_sum:
                out.append(orbit_sum(tuple(parts)))
    return out


small_element = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
            lambda c: from_fundamental(2, c)
        ),
        st.integers(-3, 3),
    ),
    max_size=3,
).map(
    lambda pairs: sum(
        (orbit_sum(mu) * c for mu, c in pairs), CharElement(2, {})
    )
)


class TestConstruction:
    def test_orbit_sum_single_term(self):
        h = orbit_sum(w(2, 1, 0))
        assert h.terms == {(1, 0, 0): 1}
        assert dim(h) == 3

    def test_unit_is_zero_weight(self):
        assert unit(2).terms == {(0, 0, 0): 1}

    def test_orbit_sum_adjoint_leader(self):
        assert dim(orbit_sum(w(2, 1, 1))) == 6

    def test_zero_coefficients_pruned(self):
        f = CharElement(2, {(1, 0, 0): 0, (0, 0, 0): 2})
        assert f.terms == {(0, 0, 0): 2}

    def test_rejects_non_dominant_keys(self):
        with pytest.raises(ValueError):
            CharElement(2, {(0, 1, 0): 1})
        with pytest.raises(ValueError):
            CharElement(2, {(1, 0): 1})


class TestECoefficient:
    def test_adjoint_zero_weight_space(self):
        ch = freudenthal_character(2, w(2, 1, 1))
        assert e_coefficient(ch, (0, 0, 0)) == 2

    def test_orbit_members(self):
        h = orbit_sum(w(2, 1, 0))
        for x in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            assert e_coefficient(h, x) == 1

    def test_absent_key(self):
        assert e_coefficient(orbit_sum(w(2, 1, 0)), (0, 0, 0)) == 0


class TestMultiply:
    def test_vector_times_covector(self):
        p = orbit_sum(w(2, 1, 0)) * orbit_sum(w(2, 0, 1))
        assert e_coefficient(p, (0, 0, 0)) == 3
        assert p.coefficient(w(2, 1, 1)) == 1

    def test_unit_is_identity(self):
        for f in small_orbit_sums(2, 3):
            assert f * unit(2) == f

    def test_vector_squared(self):
        p = orbit_sum(w(2, 1, 0)) * orbit_sum(w(2, 1, 0))
        assert dim(p) == 9
        assert p.coefficient((2, 0, 0)) == 1

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            orbit_sum((1, 0, 0)) * orbit_sum((1, 0, 0, 0))

    @given(product_factors())
    # keys of equal orbit size, a negative coefficient
    @example((orbit_sum(w(3, 1, 0, 0)) * 2, orbit_sum(w(3, 0, 0, 1)) * -3))
    def test_matches_convolution(self, factors):
        f, g = factors
        assert (f * g).terms == naive_product(f, g).terms
        assert (g * f).terms == naive_product(f, g).terms


class TestModuleStructure:
    def test_f_minus_f_is_zero(self):
        f = orbit_sum(w(2, 1, 1))
        assert not (f - f)
        assert (f - f).terms == {}

    def test_scale(self):
        assert (orbit_sum(w(2, 1, 0)) * 2).terms == {(1, 0, 0): 2}
        assert (2 * orbit_sum(w(2, 1, 0))).terms == {(1, 0, 0): 2}
        assert (orbit_sum(w(2, 1, 0)) * 0).terms == {}

    def test_add_is_pointwise(self):
        f = orbit_sum(w(2, 1, 0))
        g = orbit_sum(w(2, 0, 1)) + orbit_sum(w(2, 1, 0)) * 2
        s = f + g
        for x in [(1, 0, 0), (1, 1, 0), (0, 0, 0)]:
            assert e_coefficient(s, x) == e_coefficient(f, x) + e_coefficient(g, x)


class TestRingLaws:
    def test_exhaustive_small_range(self):
        elems = small_orbit_sums(2, 4)
        for f in elems:
            for g in elems:
                fg = f * g
                assert fg == g * f
                assert dim(fg) == dim(f) * dim(g)
        f, g, h = elems[1], elems[2], elems[3]
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h

    @given(small_element, small_element)
    def test_dimension_is_multiplicative(self, f, g):
        assert dim(f * g) == dim(f) * dim(g)

    def test_support_bound(self):
        for f in small_orbit_sums(2, 3):
            for g in small_orbit_sums(2, 3):
                if not f or not g:
                    continue
                mu = next(iter(f.terms))
                nu = next(iter(g.terms))
                top = add(mu, nu)
                for key in (f * g).terms:
                    assert dominance_leq(key, top)

    def test_highest_term_law(self):
        for mu_c in itertools.product(range(3), repeat=2):
            for nu_c in itertools.product(range(3), repeat=2):
                mu, nu = w(2, *mu_c), w(2, *nu_c)
                assert (orbit_sum(mu) * orbit_sum(nu)).coefficient(add(mu, nu)) >= 1
                prod = freudenthal_character(2, mu) * freudenthal_character(2, nu)
                assert prod.coefficient(add(mu, nu)) == 1


@st.composite
def unitriangular_systems(draw):
    """(terms, weights, basis): weights 0..n-1 in order; basis[t] is 1 at
    t, alone or with nonzero integers at later weights; terms holds any
    integers on the weights."""
    n = draw(st.integers(1, 10))
    weights = list(range(n))
    basis = {}
    for t in weights:
        below = {}
        if t < n - 1 and draw(st.booleans()):
            below = draw(
                st.dictionaries(st.integers(t + 1, n - 1), st.integers(-3, 3).filter(bool))
            )
        basis[t] = {t: 1, **below}
    terms = draw(st.dictionaries(st.sampled_from(weights), st.integers(-5, 5).filter(bool)))
    return terms, weights, basis


def dense_solve(terms, weights, basis):
    """Reference for expand: the coefficient at each weight minus the
    contributions of every weight above it, zero or not."""
    n = {}
    for i, t in enumerate(weights):
        n[t] = terms.get(t, 0) - sum(n[s] * basis[s].get(t, 0) for s in weights[:i])
    return n


class TestExpand:
    @given(unitriangular_systems())
    @example(({0: 2, 1: 1, 2: 4}, [0, 1, 2], {0: {0: 1}, 1: {1: 1, 2: 3}, 2: {2: 1}}))
    def test_matches_dense_solve(self, system):
        terms, weights, basis = system
        row = expand(terms, weights, basis.__getitem__)
        assert row == dense_solve(terms, weights, basis)
        total = {}
        for t, n in row.items():
            for s, c in basis[t].items():
                total[s] = total.get(s, 0) + n * c
        assert {s: c for s, c in total.items() if c} == terms
