import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from charrig.lattice import (
    add,
    dominant_weights_up_to,
    dual_weight,
    from_fundamental,
    fundamental_weight,
    orbit_size,
    zero_weight,
)
from charrig.oracle import (
    decompose,
    freudenthal_character,
    tensor_decompose,
    weyl_dim,
)
from charrig.ring import orbit_sum, zero


def w(l, *coords):
    return from_fundamental(l, coords)


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
        with pytest.raises(ValueError):
            freudenthal_character(2, (0, 1, 0))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            freudenthal_character(2, (1, 0))


class TestWeylDim:
    def test_examples(self):
        assert weyl_dim(2, w(2, 1, 0)) == 3
        assert weyl_dim(2, w(2, 1, 1)) == 8
        assert weyl_dim(3, zero_weight(3)) == 1
        assert weyl_dim(2, w(2, 2, 1)) == 15

    @pytest.mark.parametrize("lam", [(1, 0), (1, 0, 0, 0)])
    def test_rejects_wrong_length(self, lam):
        with pytest.raises(ValueError):
            weyl_dim(2, lam)

    @pytest.mark.parametrize(
        "l,bound", [(2, 16), (3, 14)]
    )
    def test_dimension_consistency(self, l, bound):
        for lam in dominant_weights_up_to(l, bound):
            ch = freudenthal_character(l, lam)
            assert sum(m * orbit_size(mu) for mu, m in ch.terms.items()) == weyl_dim(
                l, lam
            )


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
    def test_recovers_integer_combinations(self, case):
        l, coeffs = case
        combo = {from_fundamental(l, fc): c for fc, c in coeffs.items()}
        f = zero(l)
        for lam, c in combo.items():
            f = f + c * freudenthal_character(l, lam)
        assert decompose(f) == combo


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
