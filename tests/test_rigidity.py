import functools
import random

import pytest

from charrig.lattice import (
    add,
    dual_weight,
    from_fundamental,
    fundamental_coords,
    height,
    orbit,
    saturated_dominants,
    zero_weight,
)
from charrig.oracle import freudenthal_character, tensor_decompose
from charrig.rigidity import (
    BoundExceeded,
    OracleIncomplete,
    PerturbationError,
    check_duality_condition,
    check_support_condition,
    default_split,
    extract_structure_constants,
    lr_oracle,
    lr_table,
    multiplicity_from_product,
    perturb_family,
    perturbation_sites,
    random_split,
    reconstruct_family,
    table_oracle,
    true_family,
    validate_family,
    verify_family,
)
from charrig.ring import orbit_sum, unit


def w(*coords):
    return from_fundamental(2, coords)


def naive_duality(fam):
    """Reference duality check: rows computed on demand, each dual pair
    bound-tested by height."""
    violations, skipped = [], []
    row = functools.cache(lambda a, b: extract_structure_constants(fam, a, b))
    members = fam.index_set()
    for mu in members:
        for nu in members:
            lam0 = add(mu, nu)
            if height(lam0) > fam.bound:
                continue
            nw = dual_weight(nu)
            for lam in saturated_dominants(lam0):
                lhs = row(mu, nu)[lam]
                if height(nw) > fam.bound or height(add(lam, nw)) > fam.bound:
                    skipped.append((mu, nu, lam))
                    continue
                rhs = row(lam, nw).get(mu, 0)
                if lhs != rhs:
                    violations.append((mu, nu, lam, lhs, rhs))
    return violations, skipped


@pytest.fixture(scope="module")
def fam12():
    return true_family(2, 12)


@pytest.fixture(scope="module")
def fam10():
    return true_family(2, 10)


@pytest.fixture(scope="module")
def fam14():
    return true_family(2, 14)


class TestExtraction:
    def test_matches_lr_row(self, fam12):
        row = extract_structure_constants(fam12, w(1, 0), w(0, 1))
        assert row == {w(1, 1): 1, w(0, 0): 1}

    def test_top_entry_is_one(self, fam12):
        for mu in fam12.index_set():
            for nu in fam12.index_set():
                if height(add(mu, nu)) > fam12.bound:
                    continue
                row = extract_structure_constants(fam12, mu, nu)
                assert row[add(mu, nu)] == 1

    def test_vector_times_adjoint(self):
        fam = true_family(2, 14)
        row = extract_structure_constants(fam, w(1, 0), w(1, 1))
        assert row == {w(2, 1): 1, w(0, 2): 1, w(1, 0): 1}

    def test_bound_exceeded(self, fam10):
        with pytest.raises(BoundExceeded):
            extract_structure_constants(fam10, w(1, 1), w(1, 1))

    def test_round_trip_against_tensor_decompose(self, fam12):
        for mu in fam12.index_set():
            for nu in fam12.index_set():
                if height(add(mu, nu)) > fam12.bound:
                    continue
                row = extract_structure_constants(fam12, mu, nu)
                truth = tensor_decompose(2, mu, nu)
                assert {s: c for s, c in row.items() if c} == truth

    def test_reexpansion_holds_even_for_perturbed_families(self, fam14):
        for family in (fam14, perturb_family(fam14, w(1, 1), w(0, 0), 2)):
            for mu, nu in [(w(1, 0), w(0, 1)), (w(1, 0), w(1, 1)), (w(2, 0), w(1, 0))]:
                row = extract_structure_constants(family, mu, nu)
                total = family.members[zero_weight(2)] * 0
                for s, c in row.items():
                    total = total + c * family.members[s]
                assert total == family.member(mu) * family.member(nu)


class TestReconstruction:
    def test_base_cases(self):
        fam = reconstruct_family(lr_oracle(2), 2, 6)
        assert fam.members[zero_weight(2)] == unit(2)
        assert fam.members[w(1, 0)] == orbit_sum(w(1, 0))
        assert fam.members[w(0, 1)] == orbit_sum(w(0, 1))

    def test_adjoint_member(self):
        fam = reconstruct_family(lr_oracle(2), 2, 10)
        assert fam.members[w(1, 1)].coefficient(w(0, 0)) == 2

    @pytest.mark.parametrize("l,bound", [(2, 12), (3, 10), (3, 14)])
    def test_round_trip_equals_freudenthal(self, l, bound):
        fam = reconstruct_family(lr_oracle(l), l, bound)
        validate_family(fam)
        for lam, f in fam.members.items():
            assert f == freudenthal_character(l, lam)

    def test_bound_zero(self):
        fam = reconstruct_family(lr_oracle(2), 2, 0)
        assert fam.members == {zero_weight(2): unit(2)}

    def test_split_choice_independence(self, fam12):
        default = reconstruct_family(lr_oracle(2), 2, 12)
        for seed in (0, 1, 7):
            other = reconstruct_family(lr_oracle(2), 2, 12, split=random_split(seed))
            assert other.members == default.members

    def test_default_split(self):
        assert default_split(w(2, 1)) == (w(1, 0), w(1, 1))
        assert default_split(w(0, 2)) == (w(0, 1), w(0, 1))

    def test_table_oracle_round_trip(self, fam12):
        entries = lr_table(2, 12)
        fam = reconstruct_family(table_oracle(entries), 2, 12)
        assert fam.members == fam12.members

    def test_incomplete_table_aborts(self):
        entries = lr_table(2, 10)
        # the split of 2*omega_1 queries this lower term during reconstruction
        del entries[(w(1, 0), w(1, 0), w(0, 1))]
        with pytest.raises(OracleIncomplete) as exc:
            reconstruct_family(table_oracle(entries), 2, 10)
        assert exc.value.triple == (w(1, 0), w(1, 0), w(0, 1))

    def test_corrupted_oracle_gives_wrong_family(self, fam10):
        entries = lr_table(2, 10)
        key = (w(1, 0), w(0, 1), w(0, 0))
        entries[key] += 1
        entries[(key[1], key[0], key[2])] += 1
        fam = reconstruct_family(table_oracle(entries), 2, 10)
        assert fam.members != fam10.members


class TestMultiplicityFromProduct:
    def test_adjoint_zero_weight(self, fam12):
        row = extract_structure_constants(fam12, w(1, 0), w(0, 1))
        assert multiplicity_from_product(fam12, w(1, 0), w(0, 1), w(0, 0), row) == 2

    def test_adjoint_zero_weight_unshifted(self, fam12):
        # (1,1,1) names the zero weight without the shift to minimum 0
        row = extract_structure_constants(fam12, w(1, 0), w(0, 1))
        assert multiplicity_from_product(fam12, w(1, 0), w(0, 1), (1, 1, 1), row) == 2

    def test_non_dominant_t_reads_its_dominant_point(self, fam14):
        mu, nu = w(1, 0), w(1, 1)
        row = extract_structure_constants(fam14, mu, nu)
        for t in saturated_dominants(add(mu, nu)):
            value = multiplicity_from_product(fam14, mu, nu, t, row)
            for x in orbit(t):
                assert multiplicity_from_product(fam14, mu, nu, x, row) == value

    def test_leading_term(self, fam14):
        for mu, nu in [(w(1, 0), w(0, 1)), (w(1, 0), w(1, 1))]:
            row = extract_structure_constants(fam14, mu, nu)
            assert multiplicity_from_product(fam14, mu, nu, add(mu, nu), row) == 1

    def test_outside_saturated_set(self, fam12):
        row = extract_structure_constants(fam12, w(1, 0), w(0, 1))
        assert multiplicity_from_product(fam12, w(1, 0), w(0, 1), w(3, 0), row) == 0

    def test_agrees_with_member_coefficients(self, fam12):
        for lam in fam12.index_set():
            if sum(fundamental_coords(lam)) < 2:
                continue
            mu, nu = default_split(lam)
            row = extract_structure_constants(fam12, mu, nu)
            for t in saturated_dominants(lam):
                assert multiplicity_from_product(
                    fam12, mu, nu, t, row
                ) == fam12.members[lam].coefficient(t)


class TestSupportCondition:
    def test_true_family_clean(self, fam12):
        assert check_support_condition(fam12) == []

    def test_small_support_site_flagged(self):
        fam = true_family(2, 14)
        bad = perturb_family(fam, w(2, 1), w(0, 2), 1)
        violations = check_support_condition(bad)
        assert (w(2, 1), w(0, 2), 1, 2) in violations

    def test_full_support_site_not_flagged(self, fam10):
        bad = perturb_family(fam10, w(1, 1), w(0, 0), 1)
        assert check_support_condition(bad) == []


class TestDualityCondition:
    def test_true_family_clean(self, fam10):
        violations, skipped = check_duality_condition(fam10)
        assert violations == []
        assert skipped  # the finite bound always truncates some duals

    def test_skipped_exactly_the_escapees(self, fam10):
        _, skipped = check_duality_condition(fam10)
        for mu, nu, lam in skipped:
            nw = dual_weight(nu)
            assert (
                height(nw) > fam10.bound or height(add(lam, nw)) > fam10.bound
            )

    @pytest.mark.parametrize("delta", [1, -1, 2])
    def test_full_support_perturbation_caught(self, fam10, delta):
        bad = perturb_family(fam10, w(1, 1), w(0, 0), delta)
        violations, _ = check_duality_condition(bad)
        assert violations
        assert any(w(1, 1) in (mu, nu, add(mu, nu)) for mu, nu, lam, _, _ in violations)

    @pytest.mark.parametrize("l,bound", [(2, 24), (3, 30), (4, 30)])
    def test_matches_naive_check(self, l, bound):
        fam = true_family(l, bound)
        families = [fam]
        for seed in range(3):
            rng = random.Random(seed)
            lam, mu = rng.choice(perturbation_sites(fam))
            families.append(perturb_family(fam, lam, mu, rng.choice([-2, -1, 1, 2])))
        for family in families:
            assert check_duality_condition(family) == naive_duality(family)

    def test_witness_triple(self, fam10):
        row = extract_structure_constants(fam10, w(1, 0), w(0, 1))
        assert row[w(0, 0)] == 1
        dual_row = extract_structure_constants(fam10, w(0, 0), w(1, 0))
        assert dual_row[w(1, 0)] == 1


class TestVerify:
    def test_true_family(self, fam10):
        report = verify_family(fam10)
        assert report.passed
        assert report.members_equal

    def test_full_support_perturbation(self, fam10):
        report = verify_family(perturb_family(fam10, w(1, 1), w(0, 0), 1))
        assert report.support_pass
        assert not report.duality_pass
        assert not report.members_equal

    def test_small_support_perturbation(self, fam10):
        report = verify_family(perturb_family(fam10, w(2, 0), w(0, 1), 1))
        assert not report.support_pass
        assert not report.members_equal


class TestPerturb:
    def test_shift(self, fam10):
        bad = perturb_family(fam10, w(1, 1), w(0, 0), 1)
        assert bad.members[w(1, 1)].coefficient(w(0, 0)) == 3
        # the original is untouched
        assert fam10.members[w(1, 1)].coefficient(w(0, 0)) == 2

    def test_diagonal_protected(self, fam10):
        with pytest.raises(PerturbationError):
            perturb_family(fam10, w(1, 1), w(1, 1), 1)

    def test_outside_saturated_set(self, fam10):
        with pytest.raises(PerturbationError):
            perturb_family(fam10, w(1, 0), w(2, 0), 1)

    def test_zero_delta(self, fam10):
        with pytest.raises(PerturbationError):
            perturb_family(fam10, w(1, 1), w(0, 0), 0)

    def test_sites(self, fam10):
        sites = perturbation_sites(fam10)
        assert (w(1, 1), w(0, 0)) in sites
        assert (w(2, 0), w(0, 1)) in sites
        assert all(mu != lam for lam, mu in sites)


class TestContrapositive:
    def test_every_single_site_perturbation_detected(self, fam10):
        for lam, mu in perturbation_sites(fam10):
            for delta in (-3, -2, -1, 1, 2, 3):
                report = verify_family(perturb_family(fam10, lam, mu, delta))
                assert not report.passed, (lam, mu, delta)
                assert not report.members_equal
