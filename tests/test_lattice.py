import itertools

import pytest
from hypothesis import given, strategies as st

from charrig.lattice import (
    NotInRootLattice,
    add,
    canonical,
    dominance_leq,
    dominant_weights_up_to,
    dual_weight,
    from_fundamental,
    fundamental_coords,
    fundamental_weight,
    height,
    is_dominant,
    orbit,
    orbit_size,
    processing_key,
    rho,
    root_coordinates,
    saturated_dominants,
    support_size,
    zero_weight,
)


def w(l, *coords):
    return from_fundamental(l, coords)


def dominants_with_eps_sum(l, max_sum):
    """All canonical dominant weights of A_l with coordinate sum <= max_sum."""
    out = []
    for parts in itertools.product(range(max_sum + 1), repeat=l + 1):
        if list(parts) == sorted(parts, reverse=True) and parts[-1] == 0:
            if sum(parts) <= max_sum:
                out.append(tuple(parts))
    return out


small_dominant = st.integers(1, 3).flatmap(
    lambda l: st.tuples(*([st.integers(0, 3)] * l)).map(
        lambda c: from_fundamental(l, c)
    )
)


class TestCoordinates:
    def test_from_fundamental_examples(self):
        assert w(2, 1, 0) == (1, 0, 0)
        assert w(2, 1, 1) == (2, 1, 0)
        assert w(2, 0, 0) == (0, 0, 0)

    def test_from_fundamental_length_mismatch(self):
        with pytest.raises(ValueError):
            from_fundamental(2, [1])

    def test_round_trip(self):
        for coords in itertools.product(range(3), repeat=3):
            assert fundamental_coords(from_fundamental(3, coords)) == coords

    def test_canonical_normalization(self):
        assert canonical((3, 3, 3)) == (0, 0, 0)
        assert canonical((5, 3, 4)) == (2, 0, 1)


vectors = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.integers(-30, 30), min_size=n, max_size=n).map(tuple)
)


class TestPrimitives:
    @given(vectors, st.data())
    def test_match_the_defining_formulas(self, a, data):
        # negative and non-canonical vectors, against the defining formulas
        b = data.draw(st.lists(st.integers(-30, 30), min_size=len(a), max_size=len(a)))
        l = len(a) - 1
        m = min(a)
        assert canonical(a) == tuple(x - m for x in a)
        s = tuple(x + y for x, y in zip(a, b))
        for b_seq in (b, tuple(b)):
            total = add(a, b_seq)
            assert type(total) is tuple and total == tuple(x - min(s) for x in s)
        closed = 2 * sum((x - m) * r for x, r in zip(a, rho(l)))
        for _ in range(2):  # height is memoized: a miss, then a hit
            assert height(a) == closed

    def test_add_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            add((1, 0), (1, 0, 0))


class TestOrbit:
    def test_examples(self):
        assert orbit((1, 0, 0)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert len(orbit((2, 1, 0))) == 6
        assert orbit((0, 0, 0)) == {(0, 0, 0)}

    @given(small_dominant)
    def test_members_share_dominant_representative(self, d):
        for x in orbit(d):
            assert canonical(sorted(x, reverse=True)) == d

    @given(small_dominant)
    def test_size_matches_formula(self, d):
        assert len(orbit(d)) == orbit_size(d)

    @pytest.mark.parametrize("l", range(1, 7))
    def test_equals_the_deduplicated_permutations(self, l):
        # every permutation, duplicates removed, is the reference
        for d in dominant_weights_up_to(l, 60):
            assert orbit(d) == frozenset(itertools.permutations(d))
            assert len(orbit(d)) == orbit_size(d)

    def test_high_rank_fundamental_orbit(self):
        # (l + 1)! = 13! permutations would not finish; 13 are distinct
        assert orbit(fundamental_weight(12, 1)) == {
            tuple(int(i == j) for i in range(13)) for j in range(13)
        }


class TestDominance:
    def test_examples(self):
        assert dominance_leq(w(2, 0, 0), w(2, 1, 1))
        assert dominance_leq(w(2, 0, 1), w(2, 2, 0))
        assert dominance_leq(w(2, 1, 1), w(2, 1, 1))

    @pytest.mark.parametrize("l", [2, 3])
    def test_partial_order_exhaustive(self, l):
        doms = dominants_with_eps_sum(l, 6)
        for a in doms:
            assert dominance_leq(a, a)
            for b in doms:
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
                for c in doms:
                    if dominance_leq(a, b) and dominance_leq(b, c):
                        assert dominance_leq(a, c)

    @pytest.mark.parametrize("l", [2, 3])
    def test_root_coordinates_nonneg_iff_dominance(self, l):
        doms = dominants_with_eps_sum(l, 6)
        for a in doms:
            for b in doms:
                try:
                    k = root_coordinates(b, a)
                except NotInRootLattice:
                    assert not dominance_leq(a, b)
                    continue
                assert all(x >= 0 for x in k) == dominance_leq(a, b)

    @pytest.mark.parametrize("l", [2, 3])
    def test_height_linearizes_the_order(self, l):
        # decompose eliminates in decreasing height, which this makes a
        # valid elimination order
        doms = dominants_with_eps_sum(l, 6)
        for a in doms:
            for b in doms:
                if a != b and dominance_leq(a, b):
                    assert height(a) < height(b)


class TestRootCoordinates:
    def test_examples(self):
        assert root_coordinates(w(2, 1, 1), w(2, 0, 0)) == (1, 1)
        assert root_coordinates(w(2, 1, 1), w(2, 1, 1)) == (0, 0)
        assert root_coordinates(w(2, 2, 1), w(2, 0, 2)) == (1, 0)

    def test_not_in_root_lattice(self):
        with pytest.raises(NotInRootLattice):
            root_coordinates(w(2, 1, 0), w(2, 0, 0))

    def test_support(self):
        assert support_size((1, 1)) == 2
        assert support_size((0, 0)) == 0
        assert support_size((1, 0)) == 1


class TestSaturatedDominants:
    def test_examples(self):
        assert saturated_dominants(w(2, 1, 1)) == ((2, 1, 0), (0, 0, 0))
        assert saturated_dominants(w(2, 1, 0)) == ((1, 0, 0),)
        assert saturated_dominants(w(2, 2, 1)) == (
            w(2, 2, 1),
            w(2, 0, 2),
            w(2, 1, 0),
        )

    @given(small_dominant)
    def test_all_below_and_leader_first(self, d):
        sat = saturated_dominants(d)
        assert sat[0] == d
        for mu in sat:
            assert dominance_leq(mu, d)
        keys = [processing_key(mu) for mu in sat]
        assert keys == sorted(keys, reverse=True)

    def test_memoized_results_are_shared_and_immutable(self):
        la = w(2, 2, 2)
        expected = (w(2, 2, 2), w(2, 0, 3), w(2, 3, 0), w(2, 1, 1), w(2, 0, 0))
        first = saturated_dominants(la)
        assert type(first) is tuple and first == expected
        assert saturated_dominants(la) is first
        first_orbit = orbit(la)
        assert type(first_orbit) is frozenset and len(first_orbit) == 6
        assert orbit(la) is first_orbit

    def test_equal_weights_are_one_object(self):
        # the zero weight and the adjoint weight lie below both (2,2) and (3,0)
        a = saturated_dominants(w(2, 2, 2))
        b = saturated_dominants(w(2, 3, 0))
        common = set(a) & set(b)
        assert common == {w(2, 3, 0), w(2, 1, 1), w(2, 0, 0)}
        for mu in common:
            assert a[a.index(mu)] is b[b.index(mu)]
        listed = dominant_weights_up_to(2, 20)
        for mu in a:
            assert listed[listed.index(mu)] is mu

    @pytest.mark.parametrize("l", [2, 3])
    def test_complete(self, l):
        # every dominant weight below lam shows up
        for lam in dominants_with_eps_sum(l, 5):
            sat = set(saturated_dominants(lam))
            for mu in dominants_with_eps_sum(l, 5 + l + 1):
                if dominance_leq(mu, lam):
                    assert mu in sat


class TestDualWeight:
    def test_examples(self):
        assert dual_weight(w(2, 1, 0)) == w(2, 0, 1)
        assert dual_weight(w(2, 1, 1)) == w(2, 1, 1)
        assert dual_weight(w(3, 2, 0, 1)) == w(3, 1, 0, 2)

    @given(small_dominant)
    def test_involution(self, d):
        assert dual_weight(dual_weight(d)) == d

    @given(small_dominant)
    def test_reverses_fundamental_coords(self, d):
        assert fundamental_coords(dual_weight(d)) == tuple(
            reversed(fundamental_coords(d))
        )

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    def test_height_of_dual_pairs(self, l):
        # duality does not keep height (omega_1 and omega_l differ from
        # A_2 on), but height is additive on dominant pairs: a pair
        # (lam, nu*) whose sum is in bound has both parts in bound
        assert height(dual_weight(fundamental_weight(l, 1))) == l * (l + 1)
        weights = dominant_weights_up_to(l, 24)
        for lam in weights:
            for nu in weights:
                nw = dual_weight(nu)
                assert height(add(lam, nw)) == height(lam) + height(nw)


class TestRootData:
    def test_rho(self):
        assert rho(2) == (2, 1, 0)

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_simple_roots_have_square_length_two(self, l):
        for i in range(l):
            alpha = tuple((k == i) - (k == i + 1) for k in range(l + 1))  # e_i - e_{i+1}
            assert support_size(root_coordinates(canonical(alpha), zero_weight(l))) == 1
            assert sum(x * x for x in alpha) == 2


class TestEnumeration:
    def test_heights_of_fundamentals(self):
        assert height(fundamental_weight(2, 1)) == 4
        assert height(fundamental_weight(2, 2)) == 6

    def test_bound_12_a2(self):
        got = dominant_weights_up_to(2, 12)
        expected = {
            w(2, 0, 0),
            w(2, 1, 0),
            w(2, 0, 1),
            w(2, 2, 0),
            w(2, 1, 1),
            w(2, 0, 2),
            w(2, 3, 0),
        }
        assert set(got) == expected
        keys = [processing_key(x) for x in got]
        assert keys == sorted(keys)

    def test_bound_zero(self):
        assert dominant_weights_up_to(3, 0) == (zero_weight(3),)

    def test_downward_closed(self):
        got = set(dominant_weights_up_to(2, 10))
        for lam in got:
            for mu in saturated_dominants(lam):
                assert mu in got

    def test_additive_on_dominants(self):
        for a in dominants_with_eps_sum(2, 4):
            for b in dominants_with_eps_sum(2, 4):
                assert height(add(a, b)) == height(a) + height(b)
