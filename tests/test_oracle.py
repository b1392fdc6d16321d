import itertools
import json
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from charrig.lattice import (
    add,
    dominant_weights_up_to,
    dual_weight,
    from_fundamental,
    fundamental_weight,
    orbit,
    orbit_size,
    processing_key,
    rho,
    saturated_dominants,
    weight_count,
    zero_weight,
)
from charrig.oracle import (
    _constituent,
    _field_masks,
    _field_width,
    decompose,
    freudenthal_character,
    tensor_decompose,
    weyl_dim,
)
from charrig.ring import CharElement, orbit_sum


def w(l, *coords):
    return from_fundamental(l, coords)


def naive_decompose(f):
    """The peel-off decomposition: subtract the character of the term of
    largest processing key, which is maximal in dominance, until nothing
    is left."""
    out = {}
    residue = f
    while residue:
        mu = max(residue.terms, key=processing_key)
        c = residue.terms[mu]
        out[mu] = c
        residue = residue - c * freudenthal_character(f.rank, mu)
    return out


def string_walk_character(l, lam):
    """The Freudenthal recursion by walking each root string e_i - e_j
    through mu step by step, sorting every point to read its multiplicity:
    the reference for the string tails that freudenthal_character keeps."""
    doms = saturated_dominants(lam)
    n = l + 1
    rho_v = rho(l)

    def norm(v):  # |v + rho|^2
        return sum((a + r) ** 2 for a, r in zip(v, rho_v))

    # keyed by points aligned to lam's coordinate sum, where sorting a
    # point decreasingly gives its dominant key
    mults = {lam: 1}
    for mu in doms[1:]:
        shift = (sum(lam) - sum(mu)) // n
        mu_al = tuple(x + shift for x in mu)
        acc = 0
        for i, j in itertools.combinations(range(n), 2):
            x = list(mu_al)
            while True:
                x[i] += 1
                x[j] -= 1
                m = mults.get(tuple(sorted(x, reverse=True)))
                if m is None:
                    break  # the root string through mu leaves the weight set
                acc += m * (x[i] - x[j])
        m, rem = divmod(2 * acc, norm(lam) - norm(mu_al))
        if rem:
            raise ArithmeticError("Freudenthal division must be exact")
        mults[mu_al] = m
    return dict(zip(doms, mults.values()))


def brauer_klimyk_reference(l, mu, nu):
    """The Brauer-Klimyk row point by point: for each weight x of the
    factor with fewer weights, y = x + top + rho is dropped on a wall, and
    otherwise sorted and counted with the parity of its inversions.  The
    reference for the packed pair differences of tensor_decompose, key
    order included."""
    chars = [freudenthal_character(l, lam) for lam in (mu, nu)]
    sizes = [sum(orbit_size(d) for d in ch.terms) for ch in chars]
    walked, top = (chars[0], nu) if sizes[0] <= sizes[1] else (chars[1], mu)
    n = l + 1
    rho_v = rho(l)
    shift = [a + r for a, r in zip(top, rho_v)]
    out = {}
    for d, m in walked.terms.items():
        for x in orbit(d):
            y = [a + b for a, b in zip(x, shift)]
            if len(set(y)) < n:
                continue  # y lies on a wall: it contributes nothing
            minus = sum([a < b for a, b in itertools.combinations(y, 2)]) & 1
            y.sort(reverse=True)
            low = y[-1]
            lam = tuple([a - r - low for a, r in zip(y, rho_v)])
            out[lam] = out.get(lam, 0) + (-m if minus else m)
    return {lam: c for lam, c in out.items() if c}


def invariant_elements(l):
    """Integer combinations of a few orbit sums of small weights at A_l."""
    return st.dictionaries(
        st.sampled_from(dominant_weights_up_to(l, max(18, 6 * l))),
        st.integers(-3, 3).filter(bool),
        min_size=1,
        max_size=3,
    ).map(lambda d: CharElement(l, d))


class TestFreudenthal:
    def test_adjoint(self):
        ch = freudenthal_character(2, w(2, 1, 1))
        assert ch.terms == {(2, 1, 0): 1, (0, 0, 0): 2}

    def test_fundamentals_are_orbit_sums(self):
        for l in (1, 2, 3, 4):
            for i in range(1, l + 1):
                om = fundamental_weight(l, i)
                assert freudenthal_character(l, om).terms == {om: 1}

    def test_a2_21(self):
        ch = freudenthal_character(2, w(2, 2, 1))
        assert ch.terms == {w(2, 2, 1): 1, w(2, 0, 2): 1, w(2, 1, 0): 2}

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError, match="not dominant"):
            freudenthal_character(2, (0, 1, 0))

    @pytest.mark.parametrize("lam", [(1, 0), (2, 0), (1, 0, 0, 0)])
    def test_rejects_wrong_length(self, lam):
        with pytest.raises(ValueError, match="wrong length"):
            freudenthal_character(2, lam)

    def test_warm_memo_serves_the_same_inputs(self):
        # the memo is read before the weight is checked: inputs that work
        # cold still work warm, and bad ones are still refused
        ch = freudenthal_character(2, (2, 0, 0))
        freudenthal_character(1, (2, 0))
        assert freudenthal_character(2, [2, 0, 0]) is ch  # unhashable
        assert freudenthal_character(2, (3, 1, 1)) is ch  # not canonical
        with pytest.raises(ValueError, match="wrong length"):
            freudenthal_character(2, (2, 0))
        with pytest.raises(ValueError, match="not dominant"):
            freudenthal_character(2, (0, 2, 0))

    @pytest.mark.parametrize(
        "l,bound", [(1, 60), (2, 90), (3, 50), (4, 40), (5, 30), (6, 24), (11, 24)]
    )
    def test_matches_the_string_walk(self, l, bound):
        from charrig import oracle

        oracle.clear_memo()
        for lam in dominant_weights_up_to(l, bound):
            terms = freudenthal_character(l, lam).terms
            assert list(terms.items()) == list(string_walk_character(l, lam).items())

    # the recursion's exactness checks raise, so they hold under python -O;
    # a false rho makes the adjoint's norm gap 2 + 2 rho_0 - 2 rho_2 and
    # its Freudenthal numerator 12
    @pytest.mark.parametrize(
        "false_rho,match",
        [((0, 0, 1), "norm gap must be positive"), ((3, 0, 0), "division must be exact")],
    )
    def test_exactness_checks_raise(self, monkeypatch, false_rho, match):
        from charrig import oracle

        monkeypatch.setattr(oracle, "_MEMO", {})
        monkeypatch.setattr(oracle, "rho", lambda l: false_rho)
        with pytest.raises(ArithmeticError, match=match):
            freudenthal_character(2, w(2, 1, 1))
        assert not oracle._MEMO


class TestWeylDim:
    def test_examples(self):
        assert weyl_dim(2, w(2, 1, 0)) == 3
        assert weyl_dim(2, w(2, 1, 1)) == 8
        assert weyl_dim(3, zero_weight(3)) == 1
        assert weyl_dim(2, w(2, 2, 1)) == 15

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError, match="not dominant"):
            weyl_dim(2, (0, 1, 0))

    @pytest.mark.parametrize("lam", [(1, 0), (1, 0, 0, 0)])
    def test_rejects_wrong_length(self, lam):
        with pytest.raises(ValueError, match="wrong length"):
            weyl_dim(2, lam)

    @pytest.mark.parametrize(
        "l,bound", [(1, 40), (2, 16), (3, 14), (4, 24), (5, 30), (6, 36)]
    )
    def test_dimension_consistency(self, l, bound):
        for lam in dominant_weights_up_to(l, bound):
            ch = freudenthal_character(l, lam)
            assert sum(m * orbit_size(mu) for mu, m in ch.terms.items()) == weyl_dim(
                l, lam
            )

    @pytest.mark.parametrize("l,bound", [(1, 40), (2, 40), (3, 40), (4, 40), (5, 40), (6, 42)])
    def test_second_moment(self, l, bound):
        # (l+2) sum m_mu |W mu| q(mu) = dim(lam) p(lam, lam + 2 rho): unlike
        # the dimension, it weighs each multiplicity by its distance from 0
        n = l + 1

        def p(a, b):
            return n * sum(x * y for x, y in zip(a, b)) - sum(a) * sum(b)

        for lam in dominant_weights_up_to(l, bound):
            ch = freudenthal_character(l, lam)
            lhs = (l + 2) * sum(m * orbit_size(mu) * p(mu, mu) for mu, m in ch.terms.items())
            lam_2rho = tuple(x + 2 * r for x, r in zip(lam, rho(l)))
            assert lhs == weyl_dim(l, lam) * p(lam, lam_2rho)


class TestDecompose:
    def test_character_is_basis_element(self):
        ch = freudenthal_character(2, w(2, 1, 1))
        assert decompose(ch) == {w(2, 1, 1): 1}

    def test_trivial(self):
        assert decompose(orbit_sum(zero_weight(2))) == {(0, 0, 0): 1}

    def test_orbit_sum_of_adjoint_leader(self):
        assert decompose(orbit_sum(w(2, 1, 1))) == {w(2, 1, 1): 1, (0, 0, 0): -2}

    @pytest.mark.parametrize("l,bound", [(2, 12), (3, 12)])
    def test_round_trip(self, l, bound):
        for lam in dominant_weights_up_to(l, bound):
            assert decompose(freudenthal_character(l, lam)) == {lam: 1}

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda l: st.dictionaries(
                st.tuples(*[st.integers(0, 2)] * l),
                st.integers(-3, 3).filter(bool),
                max_size=4,
            ).map(lambda d: (l, d))
        )
    )
    # highest weights in one root-lattice class that are incomparable in
    # dominance: their saturated sets interleave in processing order
    @example((2, {(3, 0): 1, (0, 3): 1}))
    @example((2, {(3, 0): 2, (0, 3): -1, (1, 1): 3}))
    @example((3, {(2, 0, 0): 1, (0, 0, 2): -2}))
    def test_recovers_integer_combinations(self, case):
        l, coeffs = case
        combo = {from_fundamental(l, fc): c for fc, c in coeffs.items()}
        f = CharElement(l, {})
        for lam, c in combo.items():
            f = f + c * freudenthal_character(l, lam)
        assert decompose(f) == combo

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda l: st.tuples(
                invariant_elements(l), invariant_elements(l), invariant_elements(l)
            )
        )
    )
    @example(
        (
            CharElement(2, {w(2, 3, 0): 1, w(2, 1, 1): -1}),
            CharElement(2, {w(2, 0, 3): 2, w(2, 0, 0): 1}),
            CharElement(2, {w(2, 3, 0): 1, w(2, 0, 3): 1}),
        )
    )
    def test_matches_peel_off(self, elems):
        x, y, z = elems
        # z's terms serve as the coefficients of a combination of characters
        combo = CharElement(x.rank, {})
        for lam, c in z.terms.items():
            combo = combo + c * freudenthal_character(x.rank, lam)
        for f in (x * y, combo):
            assert decompose(f) == naive_decompose(f)


class TestTensorDecompose:
    def test_vector_covector(self):
        assert tensor_decompose(2, w(2, 1, 0), w(2, 0, 1)) == {
            w(2, 1, 1): 1,
            (0, 0, 0): 1,
        }

    def test_vector_squared(self):
        assert tensor_decompose(2, w(2, 1, 0), w(2, 1, 0)) == {
            w(2, 2, 0): 1,
            w(2, 0, 1): 1,
        }

    def test_trivial_factor(self):
        for lam in dominant_weights_up_to(2, 10):
            assert tensor_decompose(2, lam, zero_weight(2)) == {lam: 1}

    def test_a3_vector_dual(self):
        assert tensor_decompose(3, w(3, 1, 0, 0), w(3, 0, 0, 1)) == {
            w(3, 1, 0, 1): 1,
            zero_weight(3): 1,
        }


# the largest height of a factor per rank in the differential test
TENSOR_BOUND = {1: 40, 2: 30, 3: 30, 4: 30, 5: 30, 6: 30, 7: 28}


@st.composite
def tensor_cases(draw):
    """(l, mu, nu) at A1-A7, nu half the time the zero weight, mu or mu*."""
    l = draw(st.integers(1, 7))
    weights = dominant_weights_up_to(l, TENSOR_BOUND[l])
    mu = draw(st.sampled_from(weights))
    nu = draw(
        st.one_of(
            st.sampled_from([zero_weight(l), mu, dual_weight(mu)]),
            st.sampled_from(weights),
        )
    )
    return l, mu, nu


class TestBrauerKlimyk:
    @settings(max_examples=80, deadline=None)
    @given(tensor_cases())
    @example((1, zero_weight(1), zero_weight(1)))
    @example((2, w(2, 3, 1), w(2, 3, 1)))
    @example((3, w(3, 2, 1, 0), w(3, 0, 1, 2)))
    @example((5, w(5, 1, 0, 2, 0, 0), zero_weight(5)))
    @example((6, w(6, 0, 1, 0, 0, 1, 0), w(6, 0, 1, 0, 0, 1, 0)))
    @example((7, w(7, 0, 1, 0, 0, 0, 0, 0), w(7, 0, 0, 0, 0, 0, 1, 0)))
    def test_matches_product_and_decompose(self, case):
        l, mu, nu = case
        expected = decompose(freudenthal_character(l, mu) * freudenthal_character(l, nu))
        assert tensor_decompose(l, mu, nu) == expected
        assert tensor_decompose(l, nu, mu) == expected

    @staticmethod
    def assert_matches_reference(l, mu, nu):
        row = tensor_decompose(l, mu, nu)
        expected = brauer_klimyk_reference(l, mu, nu)
        assert row == expected
        assert list(row) == list(expected)

    @pytest.mark.parametrize(
        "l,bound", [(1, 60), (2, 40), (3, 30), (4, 24), (5, 20), (6, 16)]
    )
    def test_matches_the_reference_on_every_pair_in_bound(self, l, bound):
        weights = dominant_weights_up_to(l, bound)
        for mu, nu in itertools.product(weights, weights):
            self.assert_matches_reference(l, mu, nu)

    # tops with zero fundamental coordinates, where many x + top + rho lie
    # on a wall; the zero weight; and (mu, mu*) pairs, up to A7's 28 fields
    EDGE_CASES = [
        (2, (0, 5), (3, 0)),
        (3, (2, 0, 1), (0, 3, 0)),
        (4, (1, 0, 0, 2), (0, 2, 0, 0)),
        (5, (0, 1, 0, 1, 0), (2, 0, 0, 0, 1)),
        (6, (0, 0, 2, 0, 0, 0), (1, 0, 0, 0, 0, 1)),
        (7, (0, 0, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0, 1, 0)),
        (3, (0, 0, 0), (0, 0, 0)),
        (6, (0, 0, 0, 0, 0, 0), (1, 0, 2, 0, 0, 0)),
        (7, (0, 2, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 0)),
        (3, (2, 1, 0), (0, 1, 2)),
        (5, (3, 0, 1, 0, 0), (0, 0, 1, 0, 3)),
        (7, (1, 0, 0, 0, 0, 1, 1), (1, 1, 0, 0, 0, 0, 1)),
    ]

    @pytest.mark.parametrize("l,mu,nu", EDGE_CASES)
    def test_matches_the_reference_on_walls_zero_and_duals(self, l, mu, nu):
        self.assert_matches_reference(l, w(l, *mu), w(l, *nu))
        self.assert_matches_reference(l, w(l, *nu), w(l, *mu))

    # A1 pairs whose largest pair difference y_0 - y_1 = a + 1 + b passes
    # 2^15 or 2^16, so 16-bit fields cannot hold it; rank 2 and up has no
    # such weight within Freudenthal's reach
    @pytest.mark.parametrize("a,b", [(32765, 7), (65533, 4), (70000, 3)])
    def test_wide_fields_give_the_clebsch_gordan_row(self, a, b):
        assert _field_width(a + 1 + b) == 32
        row = tensor_decompose(1, (a, 0), (b, 0))
        assert row == {(a + b - 2 * k, 0): 1 for k in range(b + 1)}
        self.assert_matches_reference(1, (a, 0), (b, 0))

    def test_field_width_is_the_smallest_that_holds_the_spread(self):
        # 2^(w-1) > spread + 1, w a multiple of 16
        assert [_field_width(s) for s in (0, 2**15 - 2, 2**15 - 1, 2**31 - 2, 2**31 - 1)] == [
            16, 16, 32, 32, 48
        ]

    # (l, walked highest weight, top) in fundamental coordinates; the A2
    # and A3 tops above 2^15 and 2^31 take the fields to 32 and 48 bits
    FIELD_CASES = [
        (1, (7,), (32765,)),
        (1, (4,), (65533,)),
        (1, (32766,), (0,)),
        (2, (3, 1), (40, 0)),
        (3, (2, 0, 2), (0, 5, 1)),
        (5, (1, 0, 1, 0, 1), (0, 0, 0, 0, 0)),
        (7, (1, 0, 0, 0, 0, 0, 1), (0, 3, 0, 0, 0, 1, 0)),
        (2, (2, 2), (40000, 3)),
        (2, (1, 3), (0, 2**31 + 5)),
        (3, (2, 1, 1), (1, 33000, 0)),
        (3, (0, 3, 0), (2**31, 0, 7)),
    ]

    @pytest.mark.parametrize("l,lam,top", FIELD_CASES)
    def test_fields_stay_in_range(self, l, lam, top):
        """F = C - D_x, packed from _field_masks' pair coefficients at the
        width the rule gives, holds B - 1 + y_i - y_j in field k of the
        k-th pair i < j, the adjacent pairs first and then by j - i, each
        in [0, 2^w), for every weight x of lam and y = x + top + rho.  Off
        the walls, the low l fields of sorted y (those of F itself when y
        is already strictly decreasing) decode to the canonical key of
        sorted y."""
        n = l + 1
        lam, top = w(l, *lam), w(l, *top)
        shift = [a + r for a, r in zip(top, rho(l))]
        width = _field_width(shift[0] + lam[0])
        *_, low_wall, adjacent, coeffs = _field_masks(n, width)
        half = 1 << (width - 1)
        pairs = sorted(itertools.combinations(range(n), 2), key=lambda p: p[1] - p[0])
        assert pairs[:l] == [(i, i + 1) for i in range(l)]
        ones = sum(1 << (width * k) for k in range(len(pairs)))
        low = (1 << (width * l)) - 1
        for d in saturated_dominants(lam):
            for x in orbit(d):
                y = [a + b for a, b in zip(x, shift)]
                fields = [half - 1 + y[i] - y[j] for i, j in pairs]
                assert all(0 <= f < 2 * half for f in fields)
                packed = (half - 1) * ones - sum(map(operator.mul, y, coeffs))
                assert packed == sum(f << (width * k) for k, f in enumerate(fields))
                if len(set(y)) < n:
                    continue  # a wall: no key
                ys = sorted(y, reverse=True)
                key = sum((half - 1 + ys[k] - ys[k + 1]) << (width * k) for k in range(l))
                assert low_wall + sum(map(operator.mul, ys, adjacent)) == key
                if ys == y:
                    assert packed & low == key
                canonical_key = tuple([a - r - ys[-1] for a, r in zip(ys, rho(l))])
                assert _constituent(n, width, key) == canonical_key

    @pytest.mark.parametrize("l", range(1, 8))
    def test_keys_decode_to_their_weights(self, l):
        """Each dominant weight in bound, its fundamental coordinates
        packed one per w-bit field with the bias B = 2^(w-1) added, decodes
        to its canonical tuple; the zero weight has every field at B."""
        weights = dominant_weights_up_to(l, TENSOR_BOUND[l])
        assert weights[0] == zero_weight(l)
        for width in (16, 32, 48):
            half = 1 << (width - 1)
            for lam in weights:
                coords = [a - b for a, b in zip(lam, lam[1:])]
                key = sum((half + c) << (width * k) for k, c in enumerate(coords))
                assert _constituent(l + 1, width, key) == lam

    # rows recorded from the product-and-decompose route at commit 29f1ddc,
    # keyed by fundamental coordinates
    PINNED = [
        (2, (2, 1), (1, 2), {
            (3, 3): 1, (1, 4): 1, (4, 1): 1, (2, 2): 2,
            (0, 3): 1, (3, 0): 1, (1, 1): 2, (0, 0): 1,
        }),
        (2, (3, 1), (2, 0), {(5, 1): 1, (3, 2): 1, (1, 3): 1, (4, 0): 1, (2, 1): 1}),
        (3, (1, 0, 1), (0, 1, 1), {
            (1, 1, 2): 1, (0, 0, 3): 1, (1, 2, 0): 1,
            (2, 0, 1): 1, (0, 1, 1): 2, (1, 0, 0): 1,
        }),
        (3, (2, 1, 0), (0, 1, 2), {
            (2, 2, 2): 1, (3, 0, 3): 1, (1, 1, 3): 1, (3, 1, 1): 1,
            (1, 2, 1): 1, (2, 0, 2): 2, (0, 1, 2): 1, (2, 1, 0): 1,
            (0, 2, 0): 1, (1, 0, 1): 2, (0, 0, 0): 1,
        }),
    ]

    @pytest.mark.parametrize("l,mu,nu,row", PINNED)
    def test_needs_no_product_and_no_decompose(self, monkeypatch, l, mu, nu, row):
        from charrig import oracle

        def forbidden(*args, **kwargs):
            raise AssertionError("tensor_decompose must not call this")

        oracle.clear_memo()
        monkeypatch.setattr(CharElement, "__mul__", forbidden)
        monkeypatch.setattr(CharElement, "__rmul__", forbidden)
        monkeypatch.setattr(oracle, "decompose", forbidden)
        expected = {w(l, *lam): c for lam, c in row.items()}
        assert tensor_decompose(l, w(l, *mu), w(l, *nu)) == expected
        assert tensor_decompose(l, w(l, *nu), w(l, *mu)) == expected

    @pytest.mark.parametrize(
        "bad,match",
        [((1, 0), "wrong length"), ((1, 0, 0, 0), "wrong length"), ((0, 1, 0), "not dominant")],
    )
    def test_rejects_bad_weight_in_either_position(self, bad, match):
        good = w(2, 1, 1)
        with pytest.raises(ValueError, match=match):
            tensor_decompose(2, bad, good)
        with pytest.raises(ValueError, match=match):
            tensor_decompose(2, good, bad)


class TestWeightCount:
    @pytest.mark.parametrize("l,bound", [(1, 30), (2, 24), (3, 24), (4, 20), (5, 18)])
    def test_counts_the_weights_of_the_character(self, l, bound):
        for lam in dominant_weights_up_to(l, bound):
            count = sum(map(orbit_size, saturated_dominants(lam)))
            assert weight_count(lam) == count
            assert sum(map(orbit_size, freudenthal_character(l, lam).terms)) == count

    def test_counts_a_character_read_from_the_cache(self, tmp_path, monkeypatch):
        from charrig import oracle

        lam = w(3, 2, 1, 2)
        d = str(tmp_path)
        oracle.clear_memo()
        freudenthal_character(3, lam, cache_dir=d)
        oracle.clear_memo()
        loaded = []
        load = oracle._load_cached

        def spy(*args):
            loaded.append(load(*args))
            return loaded[-1]

        monkeypatch.setattr(oracle, "_load_cached", spy)
        ch = freudenthal_character(3, lam, cache_dir=d)
        assert loaded == [ch]  # read from the file, not recomputed
        assert sum(map(orbit_size, ch.terms)) == weight_count(lam) == 116


class TestLRIdentities:
    @pytest.mark.parametrize("l,bound", [(2, 10), (3, 10)])
    def test_symmetry_duality_positivity_dimensions(self, l, bound):
        weights = dominant_weights_up_to(l, bound)
        for mu, nu in itertools.product(weights, weights):
            row = tensor_decompose(l, mu, nu)
            assert row == tensor_decompose(l, nu, mu)
            assert all(c >= 0 for c in row.values())
            assert row[add(mu, nu)] == 1
            assert sum(c * weyl_dim(l, lam) for lam, c in row.items()) == weyl_dim(
                l, mu
            ) * weyl_dim(l, nu)
            for lam, c in row.items():
                dual_row = tensor_decompose(l, lam, dual_weight(nu))
                assert dual_row.get(mu, 0) == c


def assert_file_rejected(tmp_path, edit):
    """A cache file whose bytes edit changes is discarded: the character
    is recomputed and written back, so the file's bytes show the
    rejection even where the coerced values were right."""
    from charrig import oracle

    lam = w(2, 2, 2)
    d = str(tmp_path)
    oracle.clear_memo()
    good = freudenthal_character(2, lam, cache_dir=d)
    (path,) = list(tmp_path.iterdir())
    data = path.read_bytes()
    path.write_bytes(edit(data))
    oracle.clear_memo()
    assert freudenthal_character(2, lam, cache_dir=d) == good
    assert path.read_bytes() == data


def assert_rejected_and_rewritten(tmp_path, tamper):
    """As assert_file_rejected, for an edit of the file's term rows."""

    def edit(data):
        doc = json.loads(data)
        tamper(doc["terms"])
        return json.dumps(doc).encode()

    assert_file_rejected(tmp_path, edit)


def ones_written_as(value):
    """A tamper that writes every coordinate 1 of the mu rows as value,
    which equals 1 in Python."""

    def tamper(terms):
        for t in terms:
            t["mu"] = [value if c == 1 else c for c in t["mu"]]

    return tamper


class TestDiskCache:
    def test_cold_and_warm_agree(self, tmp_path):
        from charrig import oracle

        lam = w(2, 2, 1)
        fresh = freudenthal_character(2, lam)
        d = str(tmp_path)
        oracle.clear_memo()
        first = freudenthal_character(2, lam, cache_dir=d)
        oracle.clear_memo()
        second = freudenthal_character(2, lam, cache_dir=d)
        assert first == second == fresh
        assert list(tmp_path.iterdir())

    def test_corrupt_entry_recomputed(self, tmp_path):
        from charrig import oracle

        lam = w(2, 1, 1)
        d = str(tmp_path)
        oracle.clear_memo()
        good = freudenthal_character(2, lam, cache_dir=d)
        (path,) = list(tmp_path.iterdir())
        path.write_text("not json at all")
        oracle.clear_memo()
        assert freudenthal_character(2, lam, cache_dir=d) == good

    def test_tampered_entry_rejected(self, tmp_path):
        from charrig import oracle

        lam = w(2, 1, 1)
        d = str(tmp_path)
        oracle.clear_memo()
        good = freudenthal_character(2, lam, cache_dir=d)
        (path,) = list(tmp_path.iterdir())
        doc = json.loads(path.read_text())
        doc["terms"][0]["coeff"] = 7
        path.write_text(json.dumps(doc))
        oracle.clear_memo()
        assert freudenthal_character(2, lam, cache_dir=d) == good

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda terms: terms[0].update(coeff=1.5),
            lambda terms: terms[0].update(coeff=True),
            lambda terms: terms[1].update(mu=[str(c) for c in terms[1]["mu"]]),
            lambda terms: terms.append(dict(terms[-1], coeff=terms[-1]["coeff"] + 1)),
            ones_written_as(True),
            ones_written_as(1.0),
        ],
        ids=["float-coeff", "bool-coeff", "string-mu", "repeated-mu", "true-in-mu", "float-in-mu"],
    )
    def test_non_integer_or_repeated_entry_rejected(self, tmp_path, tamper):
        assert_rejected_and_rewritten(tmp_path, tamper)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda terms: terms.reverse(),
            lambda terms: terms[-1].update(coeff=-1),
            lambda terms: terms[-1].update(coeff=0),
        ],
        ids=["reversed-rows", "negative-lower", "zero-lower"],
    )
    def test_misordered_or_nonpositive_entry_rejected(self, tmp_path, tamper):
        assert_rejected_and_rewritten(tmp_path, tamper)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda data: json.dumps(
                {k: v for k, v in json.loads(data).items() if k != "terms"}
            ).encode(),
            lambda data: b"\xef\xbb\xbf" + data,
            # an extra field is ignored, so only the decoding rejects it
            lambda data: data.replace(b"{", b'{"note": "caf\xe9", ', 1),
            # json raises RecursionError, not ValueError, on this one
            lambda data: b"[" * 100000 + b"]" * 100000,
        ],
        ids=["missing-terms", "utf8-bom", "not-utf8", "nested-too-deeply"],
    )
    def test_unreadable_file_rejected(self, tmp_path, edit):
        assert_file_rejected(tmp_path, edit)

    def test_lower_multiplicity_edit_is_accepted(self, tmp_path):
        # the known gap: a lower multiplicity changed to another positive
        # integer passes the check, and the edited table is returned; the
        # file is read again after clear_memo, so the edit shows
        from charrig import oracle

        lam = w(2, 2, 2)
        d = str(tmp_path)
        oracle.clear_memo()
        good = freudenthal_character(2, lam, cache_dir=d)
        (path,) = list(tmp_path.iterdir())
        doc = json.loads(path.read_text())
        (row,) = [t for t in doc["terms"] if t["mu"] == [3, 0]]
        assert row["coeff"] == 1
        row["coeff"] = 2
        path.write_text(json.dumps(doc))
        oracle.clear_memo()
        edited = freudenthal_character(2, lam, cache_dir=d)
        assert edited.terms == {**good.terms, w(2, 3, 0): 2}

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        from charrig import oracle

        def partial_dump(doc, fh):
            fh.write(json.dumps(doc)[:20])
            raise OSError("disk full")

        lam = w(2, 2, 1)
        good = freudenthal_character(2, lam)
        oracle.clear_memo()
        monkeypatch.setattr(json, "dump", partial_dump)
        assert freudenthal_character(2, lam, cache_dir=str(tmp_path)) == good
        assert list(tmp_path.iterdir()) == []

    def test_unusable_cache_dir_is_skipped(self, tmp_path):
        from charrig import oracle

        oracle.clear_memo()
        lam = w(2, 2, 1)
        good = freudenthal_character(2, lam)
        oracle.clear_memo()
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert freudenthal_character(2, lam, cache_dir=str(blocker)) == good
        assert blocker.read_text() == "not a directory"
        assert list(tmp_path.iterdir()) == [blocker]


class TestA4Sample:
    def test_dimension_consistency_sample(self):
        rng = random.Random(4)
        pool = [c for c in itertools.product(range(3), repeat=4) if any(c)]
        for coords in rng.sample(pool, 12):
            lam = from_fundamental(4, coords)
            ch = freudenthal_character(4, lam)
            assert sum(
                m * orbit_size(mu) for mu, m in ch.terms.items()
            ) == weyl_dim(4, lam)
