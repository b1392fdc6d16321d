import functools
import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import charrig
from charrig import oracle, rigidity
from charrig.lattice import (
    add,
    dominant_weights_up_to,
    dual_weight,
    from_fundamental,
    fundamental_coords,
    height,
    orbit,
    root_coordinates,
    saturated_dominants,
    support_size,
    zero_weight,
)
from charrig.oracle import freudenthal_character, tensor_decompose
from charrig.rigidity import (
    BoundExceeded,
    CharacterFamily,
    ConditionReport,
    OracleIncomplete,
    PerturbationError,
    check_duality_condition,
    check_support_condition,
    default_split,
    extract_structure_constants,
    lr_oracle,
    lr_table,
    perturb_family,
    perturbation_sites,
    reconstruct_family,
    table_oracle,
    true_family,
    validate_family,
    verify_family,
)
from charrig.ring import CharElement, orbit_sum, unit
from charrig.serialize import dump_doc, family_from_doc, family_to_doc
from product_route import multiplicity_from_product, random_split


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
    return violations, tuple(skipped)


def naive_support(fam):
    """Reference support check: every member compared at every site of
    its saturated set whose root coordinates miss a simple root."""
    l = fam.rank
    violations = []
    for lam in fam.index_set():
        truth = freudenthal_character(l, lam)
        f = fam.members[lam]
        for mu in saturated_dominants(lam):
            if support_size(root_coordinates(lam, mu)) < l:
                expected, found = truth.coefficient(mu), f.coefficient(mu)
                if expected != found:
                    violations.append((lam, mu, expected, found))
    return violations


def sweep_families(fam):
    """fam, three seeded single-site perturbations of it and a
    perturbation of the last one, each listed after its parent."""
    families = [fam]
    for seed in range(3):
        rng = random.Random(seed)
        lam, mu = rng.choice(perturbation_sites(fam))
        families.append(perturb_family(fam, lam, mu, rng.choice([-2, -1, 1, 2])))
    lam, mu = random.Random(3).choice(perturbation_sites(fam))
    families.append(perturb_family(families[-1], lam, mu, 1))
    return families


def fresh_copy(fam):
    """A family equal to fam that shares no member object, as a family
    read from a file is."""
    members = {lam: CharElement(f.rank, dict(f.terms)) for lam, f in fam.members.items()}
    return CharacterFamily(fam.rank, fam.bound, members)


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
                assert total == family.members[mu] * family.members[nu]


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

    def test_wrong_leading_coefficient_raises(self, monkeypatch):
        # base members 2 h(omega_i): their products lead with 4
        monkeypatch.setattr(rigidity, "orbit_sum", lambda lam: 2 * orbit_sum(lam))
        with pytest.raises(ArithmeticError, match="leading coefficient"):
            reconstruct_family(lr_oracle(2), 2, 10)

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


def enumerated_lr_table(l, bound):
    """The reference table: one tensor_decompose per ordered pair of
    nonzero weights in bound, each row over the saturated set of the sum."""
    weights = dominant_weights_up_to(l, bound)
    expected = {}
    for mu, nu in itertools.product(weights, weights):
        lam0 = add(mu, nu)
        if any(mu) and any(nu) and height(lam0) <= bound:
            row = tensor_decompose(l, mu, nu)
            expected.update(((mu, nu, s), row.get(s, 0)) for s in saturated_dominants(lam0))
    return expected


class TestLRTable:
    @pytest.mark.parametrize("l,bound", [(2, 16), (3, 16), (1, 30), (4, 24)])
    def test_matches_tensor_decompose(self, l, bound):
        expected = enumerated_lr_table(l, bound)
        assert expected
        assert lr_table(l, bound) == expected

    def test_one_tensor_decompose_per_unordered_pair(self, monkeypatch):
        # the table reads the truth's rows, one tensor_decompose per row
        # of the layout, built once for the table and the checks alike
        calls = []

        def counted(l, mu, nu, cache_dir=None):
            calls.append(tuple(sorted((mu, nu))))
            return tensor_decompose(l, mu, nu, cache_dir)

        def forbidden(*args):
            raise AssertionError("lr_table must read the truth's rows")

        monkeypatch.setattr(rigidity, "tensor_decompose", counted)
        monkeypatch.setattr(rigidity, "lr_oracle", forbidden)
        rigidity._layout.cache_clear()
        table = lr_table(2, 16)
        rows = rigidity._layout(2, 16).rows
        assert len(calls) == len(set(calls)) == len(rows)
        assert set(calls) == {tuple(sorted((a, b))) for a, b, _ in rows}
        assert {tuple(sorted(k[:2])) for k in table} < set(calls)
        calls.clear()
        truth = true_family(2, 16)
        assert lr_table(2, 16) == table
        assert check_duality_condition(truth)[0] == []
        assert calls == []

    def test_equals_the_oracle_route_and_writes_the_factors_files(self, tmp_path):
        # the table outlives the memo, so only the explicit fetch writes
        # the factors' cache files
        rigidity._layout(2, 12)
        oracle.clear_memo()
        table = lr_table(2, 12, str(tmp_path))
        index = dominant_weights_up_to(2, 12)[1:]
        pairs = [(mu, nu, add(mu, nu)) for mu in index for nu in index if height(add(mu, nu)) <= 12]
        factors = {mu for mu, _, _ in pairs}
        assert sorted(os.listdir(tmp_path)) == sorted(
            os.path.basename(oracle._cache_path(str(tmp_path), 2, mu)) for mu in factors
        )
        query = lr_oracle(2)
        expected = [
            ((mu, nu, s), query(mu, nu, s)) for mu, nu, lam0 in pairs for s in saturated_dominants(lam0)
        ]
        assert list(table.items()) == expected

    def test_forms_no_product_and_no_family(self, monkeypatch):
        expected = {l: enumerated_lr_table(l, 16) for l in (2, 3)}

        def forbidden(*args):
            raise AssertionError("lr_table must read only tensor_decompose")

        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(CharElement, name, forbidden)
        monkeypatch.setattr(rigidity, "true_family", forbidden)
        monkeypatch.setattr(rigidity, "extract_structure_constants", forbidden)
        for l in (2, 3):
            assert lr_table(l, 16) == expected[l]


class TestValidate:
    @pytest.mark.parametrize("l,bound", [(2, 16), (3, 14)])
    def test_index_set_check_matches_enumeration(self, l, bound):
        # index sets one step from the true one: a member removed, a weight
        # of a larger bound added, or the bound moved
        members = true_family(l, bound).members
        cases = [(b, members) for b in range(bound - 6, bound + 7)]
        cases += [(bound, {k: f for k, f in members.items() if k != lam}) for lam in members]
        cases += [
            (bound, {**members, lam: f})
            for lam, f in true_family(l, bound + 10).members.items()
            if lam not in members
        ]
        for b, index in cases:
            exact = index.keys() == set(dominant_weights_up_to(l, b))
            try:
                validate_family(CharacterFamily(l, b, dict(index)))
            except ValueError as exc:
                assert not exact and "index set is not exactly" in str(exc)
            else:
                assert exact


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

    @pytest.mark.parametrize("l,bound", [(2, 24), (3, 30), (4, 30)])
    def test_matches_naive_check(self, l, bound):
        fam = true_family(l, bound)
        # the true family's members are the oracle's own objects, so the
        # check skips them; the fresh copies take the full comparison
        assert all(f is freudenthal_character(l, lam) for lam, f in fam.members.items())
        families = sweep_families(fam)
        assert any(naive_support(family) for family in families)
        for family in families:
            expected = naive_support(family)
            assert check_support_condition(family) == expected
            assert check_support_condition(fresh_copy(family)) == expected


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

    @pytest.mark.parametrize("l,bound", [(2, 24), (3, 30), (4, 30), (1, 40), (5, 30)])
    def test_matches_naive_check(self, l, bound):
        # the check also runs on a copy whose members are new objects, as
        # a family read from a file is
        truth = true_family(l, bound)
        for family in sweep_families(truth):
            expected = naive_duality(family)
            assert check_duality_condition(family) == expected
            assert check_duality_condition(fresh_copy(family)) == expected

    @pytest.mark.parametrize("l,bound", [(2, 24), (3, 30)])
    def test_skipped_is_the_same_for_every_family(self, l, bound):
        fam = true_family(l, bound)
        _, expected = naive_duality(fam)
        for family in sweep_families(fam):
            assert check_duality_condition(family)[1] == expected

    def test_returned_skipped_is_the_callers(self, fam10):
        # every check hands out the layout's one tuple, which no caller
        # can change, so no copy is made
        violations, skipped = check_duality_condition(fam10)
        assert type(skipped) is tuple
        assert check_duality_condition(fam10)[1] is skipped
        assert skipped is rigidity._layout(2, 10).skipped
        with pytest.raises(AttributeError):
            skipped.append(skipped[0])
        assert check_duality_condition(fam10) == (violations, naive_duality(fam10)[1])

    def test_witness_triple(self, fam10):
        row = extract_structure_constants(fam10, w(1, 0), w(0, 1))
        assert row[w(0, 0)] == 1
        dual_row = extract_structure_constants(fam10, w(0, 0), w(1, 0))
        assert dual_row[w(1, 0)] == 1

    @pytest.mark.parametrize(
        "terms,match",
        [
            ({w(1, 1): 2, w(0, 0): 4}, "not unitriangular"),  # 2 ch_(1,1)
            ({w(3, 0): 1, w(1, 1): 1, w(0, 0): 2}, "support outside"),  # a term above (1,1)
        ],
    )
    def test_member_off_the_basis_raises(self, fam10, terms, match):
        # the check writes a changed member over the characters below it,
        # which holds only for a unitriangular member on its saturated set:
        # 2 ch_(1,1) would pass it, though the product route finds 5
        # violations
        members = dict(fam10.members)
        members[w(1, 1)] = CharElement(2, terms)
        fam = CharacterFamily(2, 10, members)
        with pytest.raises(ValueError, match=match):
            validate_family(fam)
        with pytest.raises(ValueError, match=match):
            check_duality_condition(fam)
        if match == "not unitriangular":
            assert len(naive_duality(fam)[0]) == 5


class TestInverseKostka:
    """oracle.inverse_kostka(mu): h(mu) in the character basis, kept per
    weight until oracle.clear_memo()."""

    @pytest.mark.parametrize("l,bound", [(1, 30), (2, 24), (3, 30)])
    def test_rows_rebuild_the_orbit_sums(self, l, bound):
        for mu in dominant_weights_up_to(l, bound):
            total = CharElement(l, {})
            for s, c in oracle.inverse_kostka(mu).items():
                total = total + c * freudenthal_character(l, s)
            assert total == orbit_sum(mu)

    def test_memo_is_unchanged_by_checks(self):
        # every caller shares the memoized dict, so a check that changed
        # one would show here
        oracle.inverse_kostka.cache_clear()
        truth = true_family(2, 24)
        sites = perturbation_sites(truth)
        rng = random.Random(24)
        for _ in range(100):
            fam = truth
            for _ in range(rng.randint(1, 3)):
                lam, mu = rng.choice(sites)
                fam = perturb_family(fam, lam, mu, rng.choice([-2, -1, 1, 2]))
            check_duality_condition(fam)
        kept = oracle.inverse_kostka.cache_info()
        assert kept.currsize > 1
        for mu in dominant_weights_up_to(2, 24):
            assert oracle.inverse_kostka(mu) == oracle.decompose(orbit_sum(mu))
        # every memoized row was among those compared
        assert oracle.inverse_kostka.cache_info().hits - kept.hits == kept.currsize


class TestReference:
    """_layout's truth table: the true family's rows and the rows that
    read each member, kept once per (rank, bound) for lr_table and the
    duality check of every family."""

    def test_one_entry_per_rank_and_bound(self):
        rigidity._layout.cache_clear()
        small, large = true_family(2, 10), true_family(2, 12)
        for fam in (small, large, perturb_family(large, w(1, 1), w(0, 0), 1), fresh_copy(small)):
            check_duality_condition(fam)
        assert rigidity._layout.cache_info().currsize == 2
        for bound in (10, 12):
            layout = rigidity._layout(2, bound)
            assert [list(row) for _, _, row in layout.rows] == [
                list(saturated_dominants(add(a, b))) for a, b, _ in layout.rows
            ]
            assert layout.readers == {
                lam: tuple(
                    k for k, (a, b, row) in enumerate(layout.rows) if lam in (a, b) or row.get(lam)
                )
                for lam in dominant_weights_up_to(2, bound)
            }

    @pytest.mark.parametrize("l,bound", [(1, 30), (2, 24), (3, 30), (4, 36), (5, 40)])
    def test_truths_rows_satisfy_the_duality_identity(self, l, bound):
        # c^lam_{mu nu} = c^mu_{lam nu*}: the check compares only the pairs
        # that read a rebuilt row, since the truth's rows have no violation
        rows = [row for _, _, row in rigidity._layout(l, bound).rows]
        for mu, nu, k, duals in pair_records(l, bound):
            for lhs, dual in zip(rows[k].values(), duals, strict=True):
                if dual is not None:
                    assert lhs == rows[dual].get(mu, 0)

    @pytest.mark.parametrize("l,bound", [(1, 30), (2, 16), (3, 16), (4, 16)])
    def test_rows_are_the_truths_structure_constants(self, l, bound):
        truth = true_family(l, bound)
        layout = rigidity._layout(l, bound)
        expected = [extract_structure_constants(truth, a, b) for a, b, _ in layout.rows]
        assert [row for _, _, row in layout.rows] == expected

    def test_child_adds_nothing(self):
        truth = true_family(2, 10)
        check_duality_condition(truth)
        state = rigidity._layout(2, 10)
        rows, readers = [dict(row) for _, _, row in state.rows], dict(state.readers)
        child = perturb_family(truth, w(1, 1), w(0, 0), 1)
        verify_family(child)
        verify_family(child)
        extract_structure_constants(child, w(1, 0), w(0, 1))
        assert rigidity._layout(2, 10) is state
        assert [row for _, _, row in state.rows] == rows and state.readers == readers

    def test_child_checked_first_leaves_the_state(self, built_rows):
        lam = w(1, 1)
        rigidity._layout.cache_clear()
        truth = true_family(2, 12)
        child = perturb_family(truth, lam, w(0, 0), 1)
        expected = rows_reading(truth, lam)
        built_rows.clear()
        report = verify_family(child)
        assert len(built_rows) == expected == len(rigidity._layout(2, 12).readers[lam])
        assert expected < rows_holding(2, 12, lam)
        built_rows.clear()
        parent_report = verify_family(truth)
        assert built_rows == []
        assert parent_report == cold_report(truth)
        assert report == cold_report(child)

    def test_replaced_member_is_never_read_stale(self):
        fam = true_family(2, 10)
        assert verify_family(fam).passed
        fam.members[w(1, 1)] = CharElement(2, {w(1, 1): 1, w(0, 0): 3})
        fresh = CharacterFamily(fam.rank, fam.bound, dict(fam.members))
        report = verify_family(fresh)
        assert not report.duality_pass
        assert verify_family(fam) == report

    def test_family_holds_only_rank_bound_and_members(self):
        assert CharacterFamily._fields == ("rank", "bound", "members")


def shifted(f, mu, delta):
    """f with the coefficient of h(mu) shifted by delta, as a new object."""
    return CharElement(f.rank, {**f.terms, mu: f.coefficient(mu) + delta})


def cold_report(fam):
    """verify_family's report from the reference checks: naive_support,
    and naive_duality, the orbit-pair product route."""
    equal = fam.members == true_family(fam.rank, fam.bound).members
    return ConditionReport(naive_support(fam), *naive_duality(fam), equal)


def rows_reading(fam, lam):
    """How many of fam's rows read member lam: as a factor, or at a
    nonzero structure constant."""
    return sum(
        lam in (a, b) or bool(extract_structure_constants(fam, a, b)[lam])
        for a, b, row in rigidity._layout(fam.rank, fam.bound).rows
        if lam in row or lam in (a, b)
    )


def rows_holding(l, bound, lam):
    """How many rows of the layout hold member lam, as a factor or in
    their saturated set, read at a nonzero coefficient or not."""
    return sum(lam in (a, b) or lam in row for a, b, row in rigidity._layout(l, bound).rows)


def record(layout, mu, nu):
    """The record (mu, nu, k, duals) of an ordered pair in bound, built
    again from add and dual_weight, not from the order of the slots: k is
    its slot and duals[j] the slot of the dual pair (lam, nu*) for the
    j-th weight lam of its row, or None when lam + nu* leaves the bound."""
    weights = saturated_dominants(add(mu, nu))
    a, b, row = layout.rows[layout.slots[mu, nu]]
    assert (a, b) in ((mu, nu), (nu, mu)) and list(row) == list(weights)
    duals = tuple(layout.slots.get((lam, dual_weight(nu))) for lam in weights)
    return mu, nu, layout.slots[mu, nu], duals


def pair_records(l, bound):
    """The record of every ordered pair in bound, in pair order."""
    layout = rigidity._layout(l, bound)
    index = dominant_weights_up_to(l, bound)
    return [record(layout, mu, nu) for mu in index for nu in index if height(add(mu, nu)) <= bound]


@pytest.fixture
def built_rows(monkeypatch):
    """The slot of every row the duality check builds, in order."""
    built = []
    row_delta = rigidity._row_delta

    def counted(layout, k, changed):
        built.append(k)
        return row_delta(layout, k, changed)

    monkeypatch.setattr(rigidity, "_row_delta", counted)
    return built


def unitriangular_families(data, shapes):
    """A family drawn at one of the shapes: the true family with some
    members, or every member that has a lower weight, shifted at lower
    weights, each changed member a new object."""
    l, bound = data.draw(st.sampled_from(shapes), label="shape")
    truth = true_family(l, bound)
    every = data.draw(st.booleans(), label="every")
    members = dict(truth.members)
    for lam, f in truth.members.items():
        lower = saturated_dominants(lam)[1:]
        if lower and (every or data.draw(st.booleans(), label="changed")):
            terms = dict(f.terms)
            for mu in lower:
                terms[mu] += data.draw(st.integers(-2, 2), label="shift")
            mu = data.draw(st.sampled_from(lower), label="site")
            terms[mu] += data.draw(st.sampled_from([-1, 1]), label="delta")
            members[lam] = CharElement(l, terms)
    return CharacterFamily(l, bound, members)


class TestDualityState:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(1, 16), (2, 12), (3, 12)]), st.data())
    def test_every_check_equals_a_cold_check(self, shape, data):
        # chains of perturbations, some several sites from the truth,
        # members replaced in place after a child was made, and families
        # checked in any order, parents after their children too
        l, bound = shape
        families = [true_family(l, bound)]
        sites = perturbation_sites(families[0])
        site = st.sampled_from(sites)
        delta = st.sampled_from([-2, -1, 1, 2])
        for _ in range(data.draw(st.integers(1, 3), label="steps")):
            fam = data.draw(st.sampled_from(families), label="family")
            step = data.draw(st.sampled_from(["perturb", "replace", "check"]), label="step")
            if step == "perturb":
                lam, mu = data.draw(site, label="site")
                families.append(perturb_family(fam, lam, mu, data.draw(delta, label="delta")))
            elif step == "replace":
                lam, mu = data.draw(site, label="site")
                fam.members[lam] = shifted(fam.members[lam], mu, data.draw(delta, label="delta"))
            else:
                assert verify_family(fam) == cold_report(fam)
        for fam in data.draw(st.permutations(families), label="order"):
            assert verify_family(fam) == cold_report(fam)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_unitriangular_families_equal_the_product_route(self, data):
        fam = unitriangular_families(data, [(1, 16), (2, 12), (3, 12), (4, 14)])
        validate_family(fam)
        assert check_duality_condition(fam) == naive_duality(fam)

    def test_sites_and_seeded_families_equal_the_product_route(self):
        # every single site at A2/10, then 30 seeded families of 2-4 sites
        # at A2/12; the first changes f_(3,0) at two sites and f_(1,1),
        # which lies below it: a row reading f_(3,0) reads a changed member
        # below it, the chained case of the row differences
        truth = true_family(2, 10)
        for lam, mu in perturbation_sites(truth):
            for delta in (-2, 1):
                fam = perturb_family(truth, lam, mu, delta)
                assert check_duality_condition(fam) == naive_duality(fam)
        truth = true_family(2, 12)
        sites = perturbation_sites(truth)
        families = [[(w(3, 0), w(1, 1), 1), (w(3, 0), w(0, 0), -2), (w(1, 1), w(0, 0), 1)]]
        rng = random.Random(12)
        while len(families) < 30:
            families.append(
                [(*rng.choice(sites), rng.choice((-2, -1, 1, 2))) for _ in range(rng.randint(2, 4))]
            )
        for changes in families:
            fam = truth
            for lam, mu, delta in changes:
                fam = perturb_family(fam, lam, mu, delta)
            assert check_duality_condition(fam) == naive_duality(fam)

    def test_forms_no_product(self, monkeypatch):
        truth = true_family(2, 20)
        lam, mu = w(2, 2), w(1, 1)
        every = {
            k: shifted(f, saturated_dominants(k)[-1], 1) if len(saturated_dominants(k)) > 1 else f
            for k, f in truth.members.items()
        }
        families = [
            truth,
            fresh_copy(truth),
            perturb_family(truth, lam, mu, 1),
            fresh_copy(perturb_family(perturb_family(truth, lam, mu, -1), mu, w(0, 0), 2)),
            CharacterFamily(2, 20, every),
        ]
        expected = [naive_duality(fam) for fam in families]

        def forbidden(*args):
            raise AssertionError("the duality check must form no ring product")

        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(CharElement, name, forbidden)
        rigidity._layout.cache_clear()
        assert [check_duality_condition(fam) for fam in families] == expected

    def test_second_check_builds_no_row(self, built_rows, monkeypatch):
        # the truth's rows are the table's, so no check of the truth or of
        # a copy equal to it builds a row, cold or warm
        rigidity._layout.cache_clear()
        calls = []

        def counted(l, mu, nu, cache_dir=None):
            calls.append((mu, nu))
            return tensor_decompose(l, mu, nu, cache_dir)

        monkeypatch.setattr(rigidity, "tensor_decompose", counted)
        fam = true_family(2, 12)
        first = check_duality_condition(fam)
        assert len(calls) == len(rigidity._layout(2, 12).rows)
        calls.clear()
        for copy in (fam, fresh_copy(fam)):
            assert check_duality_condition(copy) == first
        assert built_rows == [] and calls == []

    @pytest.mark.parametrize("lam,mu", [(w(1, 1), w(0, 0)), (w(2, 2), w(1, 1))])
    def test_child_builds_only_the_rows_reading_its_member(self, built_rows, lam, mu):
        # a row whose factors are the truth's is rebuilt only where the
        # truth's row reads the changed member at a nonzero coefficient:
        # fewer than the rows that hold it
        truth = true_family(2, 24)
        expected = rows_reading(truth, lam)
        assert expected == len(rigidity._layout(2, 24).readers[lam])
        assert expected < rows_holding(2, 24, lam)
        child = perturb_family(truth, lam, mu, 1)
        built_rows.clear()
        report = verify_family(child)
        assert len(built_rows) == expected
        assert report == cold_report(child)
        assert not report.duality_pass
        # a check keeps nothing: a second one builds the same rows again
        built_rows.clear()
        assert verify_family(child) == report
        assert len(built_rows) == expected

    def test_family_read_from_a_file_builds_only_the_rows_reading_its_member(self, built_rows):
        lam = w(2, 2)
        truth = true_family(2, 24)
        child = perturb_family(truth, lam, w(1, 1), 1)
        loaded = family_from_doc(json.loads(dump_doc(family_to_doc(child))))
        assert loaded == child
        assert not any(loaded.members[k] is f for k, f in truth.members.items())
        expected = rows_reading(truth, lam)
        built_rows.clear()
        report = verify_family(loaded)
        assert len(built_rows) == expected
        assert report == cold_report(child)

    def test_state_is_kept_per_bound(self):
        # the table of one bound is never read for another
        other = true_family(2, 10)
        check_duality_condition(other)
        bad = perturb_family(true_family(2, 12), w(1, 1), w(0, 0), 1)
        assert verify_family(bad) == cold_report(bad)
        for b in (10, 12):
            index = dominant_weights_up_to(2, b)
            pairs = {(a, c) for a in index for c in index if a <= c and height(add(a, c)) <= b}
            assert {(min(a, c), max(a, c)) for a, c, _ in rigidity._layout(2, b).rows} == pairs

    def test_returned_lists_are_the_callers(self):
        truth = true_family(2, 10)
        bad = perturb_family(truth, w(1, 1), w(0, 0), 1)
        violations, _ = check_duality_condition(bad)
        expected = list(violations)
        violations.clear()
        row = extract_structure_constants(bad, w(1, 0), w(0, 1))
        row[w(0, 0)] = 99
        again, _ = check_duality_condition(bad)
        assert again == expected
        again.append(again[0])
        child = perturb_family(bad, w(2, 0), w(0, 1), 1)
        assert check_duality_condition(child)[0] == cold_report(child).duality_violations
        assert check_duality_condition(bad)[0] == expected
        assert check_duality_condition(truth)[0] == []


# both checks, each reading the true characters on the family's bound
CHECKS = pytest.mark.parametrize(
    "check",
    [check_support_condition, check_duality_condition],
    ids=lambda check: check.__name__,
)


class TestLayout:
    @CHECKS
    def test_takes_only_the_family(self, fam10, check):
        # no caller can hand a check another truth
        with pytest.raises(TypeError):
            check(fam10, fam10)

    @CHECKS
    def test_missing_member_refused(self, fam10, check):
        members = dict(fam10.members)
        del members[w(1, 1)]
        with pytest.raises(ValueError, match="index set is not exactly"):
            check(CharacterFamily(2, 10, members))

    @CHECKS
    def test_extra_member_refused(self, fam10, check):
        members = dict(fam10.members)
        members[w(4, 0)] = freudenthal_character(2, w(4, 0))  # height 16
        with pytest.raises(ValueError, match="index set is not exactly"):
            check(CharacterFamily(2, 10, members))

    @pytest.mark.parametrize("l,bound", [(2, 24), (3, 30), (4, 30)])
    def test_reports_identical_cold_or_warm(self, l, bound):
        for family in sweep_families(true_family(l, bound)):
            warm = verify_family(family)
            rigidity._layout.cache_clear()
            assert verify_family(family) == warm

    def test_only_the_checks_and_lr_table_build_it(self):
        # true_family, perturbation and reconstruction read the lattice
        # index, so a perturb or reconstruct run builds no layout, and the
        # support check reads each weight's sites, not the truth table,
        # from a cold or a warm memo of the true characters
        rigidity._layout.cache_clear()
        oracle.clear_memo()
        for _ in range(2):
            truth = true_family(2, 30)
            lam, mu = perturbation_sites(truth)[-1]
            perturb_family(truth, lam, mu, 1)
            reconstruct_family(lr_oracle(2), 2, 30)
            small = perturb_family(truth, w(2, 0), w(0, 1), 1)
            assert check_support_condition(small) == [(w(2, 0), w(0, 1), 1, 2)]
            assert check_support_condition(truth) == []
        assert rigidity._layout.cache_info().currsize == 0

    @pytest.mark.parametrize("l,bound", [(1, 30), (2, 24), (3, 30)])
    def test_one_record_per_ordered_pair(self, l, bound):
        # the slots hold each ordered pair once, in pair order, and the
        # skipped triples follow them
        layout = rigidity._layout(l, bound)
        records = pair_records(l, bound)
        assert list(layout.slots) == [(mu, nu) for mu, nu, _, _ in records]
        assert list(layout.skipped) == [
            (mu, nu, lam)
            for mu, nu, k, duals in records
            for lam, dual in zip(layout.rows[k][2], duals)
            if dual is None
        ]

    @pytest.mark.parametrize("l,bound", [(1, 30), (2, 24), (3, 30)])
    def test_entry_readers_are_the_comparisons_reading_each_entry(self, l, bound):
        # a pair's comparison at lam reads entry lam of its row and entry
        # mu of its dual row; each reader's id decodes to its factors' and
        # lam's places and sorts by pair, then row order
        layout = rigidity._layout(l, bound)
        index = dominant_weights_up_to(l, bound)
        size = len(index)
        expected = [{} for _ in layout.rows]
        order = []
        for mu, nu, k, duals in pair_records(l, bound):
            for lam, d in zip(layout.rows[k][2], duals):
                if d is not None:
                    c = (mu, nu, lam, k, d)
                    order.append(c)
                    expected[k].setdefault(lam, set()).add(c)
                    if mu in layout.rows[d][2]:
                        expected[d].setdefault(mu, set()).add(c)
        assert layout.positions == {lam: p for p, lam in enumerate(index)}
        found = set()
        for k, entries in enumerate(expected):
            for t in layout.rows[k][2]:
                readers = rigidity._entry_readers(layout, k, t)
                assert {layout.comparisons[c] for c in readers} == entries.get(t, set())
                found.update(readers)
        for c in found:
            pair, lam = divmod(c, size)
            mu, nu = divmod(pair, size)
            assert layout.comparisons[c][:3] == (index[mu], index[nu], index[size - 1 - lam])
        assert layout.comparisons.keys() == found
        assert [layout.comparisons[c] for c in sorted(found)] == order

    @pytest.mark.parametrize("l,bound", [(2, 24), (3, 30)])
    def test_comparison_ids_sort_as_their_place_keys(self, l, bound):
        # over every entry, the ids sort exactly as the keys
        # (p(mu), p(nu), -p(lam)), p the place in the index, and name
        # one comparison each
        layout = rigidity._layout(l, bound)
        pos = layout.positions
        ids = {
            c
            for k, (_, _, row) in enumerate(layout.rows)
            for t in row
            for c in rigidity._entry_readers(layout, k, t)
        }

        def key(c):
            mu, nu, lam = layout.comparisons[c][:3]
            return pos[mu], pos[nu], -pos[lam]

        assert ids and sorted(ids) == sorted(ids, key=key)
        assert len(set(map(key, ids))) == len(ids)


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

    def test_checks_read_the_truth_themselves(self):
        # a check handed the family itself as its truth once passed it; both
        # now read the true characters on its bound, as verify_family does
        fam = perturb_family(true_family(2, 24), w(2, 0), w(0, 1), 1)
        support, duality = naive_support(fam), naive_duality(fam)
        assert len(support) == 1 and len(duality[0]) == 48
        assert check_support_condition(fam) == support
        assert check_duality_condition(fam) == duality
        assert verify_family(fam) == ConditionReport(support, *duality, False)

    def test_fetches_each_true_character_once(self, monkeypatch):
        # on a cleared memo the first check fetches each true character
        # once; a second reads the memo's members and fetches none.  The
        # duality table, which outlives clear_memo, is built first
        fam = fresh_copy(true_family(2, 12))
        rigidity._layout(2, 12)
        oracle.clear_memo()
        calls = []

        def fetch(*args):
            calls.append(args)
            return freudenthal_character(*args)

        monkeypatch.setattr(oracle, "freudenthal_character", fetch)
        assert verify_family(fam).members_equal
        assert calls == [(2, lam, None) for lam in fam.members]
        assert verify_family(fam).members_equal
        assert len(calls) == len(fam.members)

    def test_cleared_memo_writes_every_members_file(self, tmp_path):
        # the members are fetched through cache_dir once per memo: after
        # clear_memo a fresh directory gets every file, and a warm memo
        # writes none
        true_family(2, 12)
        oracle.clear_memo()
        fam = true_family(2, 12, str(tmp_path / "cold"))
        names = {os.path.basename(oracle._cache_path("", 2, lam)) for lam in fam.members}
        assert set(os.listdir(tmp_path / "cold")) == names
        true_family(2, 12, str(tmp_path / "warm"))
        assert not (tmp_path / "warm").exists()

    def test_single_site_reports_equal_after_clear_memo(self):
        # verify_family reads the true characters and K^-1 from the memo
        truth = true_family(2, 10)
        sites = perturbation_sites(truth)
        families = [perturb_family(truth, lam, mu, d) for lam, mu in sites for d in (-1, 1)]
        warm = [verify_family(fam) for fam in families]
        for fam, report in zip(families, warm):
            oracle.clear_memo()
            assert verify_family(fam) == report

    def test_cleared_memo_forgets_an_edited_file(self, tmp_path):
        # K^-1 is computed from the characters, so clear_memo drops it with
        # them; the duality table alone outlives it.  The table is built on
        # clean characters, then f_(3,0) is checked against an edited
        # character of (1,1), whose multiplicity K^-1(1,1) reads
        cache = str(tmp_path)
        oracle.clear_memo()
        truth = true_family(2, 12, cache)
        layout = rigidity._layout(2, 12)
        fam = perturb_family(truth, w(3, 0), w(1, 1), 1)
        clean = cold_report(fam)
        assert not clean.passed
        path = oracle._cache_path(cache, 2, w(1, 1))
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        assert doc["terms"][1] == {"mu": [0, 0], "coeff": 2}
        doc["terms"][1]["coeff"] = 3
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        oracle.clear_memo()
        assert verify_family(fam, cache) != clean
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        oracle.clear_memo()
        assert oracle._MEMO == {} and oracle._TRUTH == {}
        assert oracle.inverse_kostka.cache_info().currsize == 0
        assert rigidity._layout(2, 12) is layout
        assert verify_family(fam, cache) == clean

    def test_members_are_each_callers_own(self):
        # changing one result's members changes neither a later result nor
        # the truth verify_family compares against
        first = true_family(2, 12)
        expected = {lam: freudenthal_character(2, lam) for lam in first.members}
        bad = perturb_family(first, w(1, 1), w(0, 0), 1)
        first.members[w(1, 1)] = bad.members[w(1, 1)]
        del first.members[w(0, 0)]
        assert true_family(2, 12).members == expected
        report = verify_family(bad)
        assert not report.members_equal and not report.duality_pass
        assert verify_family(true_family(2, 12)).passed


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

    def test_bool_delta(self, fam10):
        # True == 1 and isinstance(True, int), so only the type test rejects it
        with pytest.raises(PerturbationError):
            perturb_family(fam10, w(1, 1), w(0, 0), True)

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


def test_cli_import_skips_dataclasses_and_inspect():
    # each costs a fresh CLI process milliseconds it never uses; typing
    # too, since collections.namedtuple makes the records
    src = os.path.dirname(os.path.dirname(os.path.abspath(charrig.__file__)))
    code = (
        "import sys; from charrig import cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    res = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
