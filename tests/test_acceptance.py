"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every check is an exact integer identity (tolerance 0).  Each test
prints a single PASS line on success; a failing criterion shows as a
pytest failure.
"""

import itertools
import json
import random
import subprocess
import sys

import pytest

from charrig.lattice import (
    add,
    dominant_weights_up_to,
    dual_weight,
    from_fundamental,
    fundamental_coords,
    fundamental_weight,
    height,
    orbit_size,
    saturated_dominants,
    zero_weight,
)
from charrig.oracle import freudenthal_character, tensor_decompose, weyl_dim
from charrig.rigidity import (
    default_split,
    extract_structure_constants,
    lr_oracle,
    perturb_family,
    perturbation_sites,
    reconstruct_family,
    true_family,
    verify_family,
)
from charrig.ring import orbit_sum, unit
from product_route import multiplicity_from_product, random_split


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def w2(*coords):
    return from_fundamental(2, coords)


def test_criterion_1_dimension_cross_check():
    for l, bound in ((2, 12), (3, 10)):
        for lam in dominant_weights_up_to(l, bound):
            ch = freudenthal_character(l, lam)
            assert sum(
                m * orbit_size(mu) for mu, m in ch.terms.items()
            ) == weyl_dim(l, lam)
    rng = random.Random(20260823)
    pool = sorted(itertools.product(range(3), repeat=4))
    for coords in rng.sample(pool, 25):
        lam = from_fundamental(4, coords)
        ch = freudenthal_character(4, lam)
        assert sum(
            m * orbit_size(mu) for mu, m in ch.terms.items()
        ) == weyl_dim(4, lam)
    _report(1, "dimension cross-check")


def test_criterion_2_worked_multiplicities():
    assert freudenthal_character(2, w2(1, 1)).terms == {
        w2(1, 1): 1,
        w2(0, 0): 2,
    }
    assert freudenthal_character(2, w2(2, 0)).terms == {
        w2(2, 0): 1,
        w2(0, 1): 1,
    }
    assert freudenthal_character(2, w2(2, 1)).terms == {
        w2(2, 1): 1,
        w2(0, 2): 1,
        w2(1, 0): 2,
    }
    _report(2, "worked multiplicities")


def test_criterion_3_lr_identities():
    for l, bound in ((2, 10), (3, 8)):
        weights = dominant_weights_up_to(l, bound)
        for mu, nu in itertools.product(weights, weights):
            if height(add(mu, nu)) > bound:
                continue
            row = tensor_decompose(l, mu, nu)
            assert row == tensor_decompose(l, nu, mu)
            assert sum(
                c * weyl_dim(l, lam) for lam, c in row.items()
            ) == weyl_dim(l, mu) * weyl_dim(l, nu)
            for lam in saturated_dominants(add(mu, nu)):
                lhs = row.get(lam, 0)
                rhs = tensor_decompose(l, lam, dual_weight(nu)).get(mu, 0)
                assert lhs == rhs
    _report(3, "LR symmetry, duality, dimension multiplicativity")


def test_criterion_4_lemma_round_trip():
    for l, bound in ((2, 12), (3, 10)):
        fam = reconstruct_family(lr_oracle(l), l, bound)
        truth = true_family(l, bound)
        assert fam.members == truth.members
        for mu in truth.index_set():
            for nu in truth.index_set():
                if height(add(mu, nu)) > bound:
                    continue
                row = extract_structure_constants(truth, mu, nu)
                expected = tensor_decompose(l, mu, nu)
                assert {s: c for s, c in row.items() if c} == expected
                assert all(
                    c == 0 for s, c in row.items() if s not in expected
                )
    _report(4, "lemma round trip")


def test_criterion_5_base_cases():
    for l, bound in ((2, 12), (3, 14), (4, 20)):
        fam = reconstruct_family(lr_oracle(l), l, bound)
        assert fam.members[zero_weight(l)] == unit(l)
        for i in range(1, l + 1):
            om = fundamental_weight(l, i)
            if height(om) <= bound:
                assert fam.members[om] == orbit_sum(om)
    _report(5, "reconstruction base cases")


def test_criterion_6_theorem_contrapositive():
    l = 2
    fam = true_family(l, 10)
    full_support_site = (w2(1, 1), w2(0, 0))
    for lam, mu in perturbation_sites(fam):
        from charrig.lattice import root_coordinates, support_size

        small_support = support_size(root_coordinates(lam, mu)) < l
        for delta in (-3, -2, -1, 1, 2, 3):
            report = verify_family(perturb_family(fam, lam, mu, delta))
            assert not report.passed, (lam, mu, delta)
            if small_support:
                assert not report.support_pass, (lam, mu, delta)
            if (lam, mu) == full_support_site:
                assert not report.duality_pass, (lam, mu, delta)
    _report(6, "theorem contrapositive falsifier")


def _recursion_mismatches(fam):
    """The (lam, t) where f_lam differs from the recursion formula fed
    the LR row of its default split, t over the saturated set of lam."""
    out = []
    for lam in fam.index_set():
        if sum(fundamental_coords(lam)) < 2:
            continue
        mu, nu = default_split(lam)
        lr = tensor_decompose(fam.rank, mu, nu)
        row = {s: lr.get(s, 0) for s in saturated_dominants(lam)}
        for t in row:
            if multiplicity_from_product(
                fam, mu, nu, t, row
            ) != fam.members[lam].coefficient(t):
                out.append((lam, t))
    return out


def test_criterion_7_recursion_formula_consistency():
    for l, bound in ((2, 12), (3, 10)):
        assert _recursion_mismatches(true_family(l, bound)) == []
    for l, bound in ((2, 16), (3, 20)):
        fam = true_family(l, bound)
        sites = perturbation_sites(fam)
        assert sites
        for lam, mu in sites:
            for delta in (1, -1):
                bad = perturb_family(fam, lam, mu, delta)
                assert (lam, mu) in _recursion_mismatches(bad), (lam, mu, delta)
    _report(7, "recursion formula consistency")


def test_criterion_8_split_choice_independence():
    default = reconstruct_family(lr_oracle(2), 2, 10)
    randomized = reconstruct_family(
        lr_oracle(2), 2, 10, split=random_split(20260823)
    )
    assert randomized.members == default.members
    _report(8, "split-choice independence")


def test_criterion_9_cli_determinism(tmp_path):
    cache = tmp_path / "cache"
    args = [
        sys.executable, "-m", "charrig",
        "reconstruct", "--rank", "2", "--bound", "12", "--oracle", "lr",
        "--cache-dir", str(cache),
    ]
    cold = subprocess.run(args, capture_output=True, text=True)
    warm = subprocess.run(args, capture_output=True, text=True)
    assert cold.returncode == 0 and warm.returncode == 0
    assert cold.stdout == warm.stdout
    doc = json.loads(cold.stdout)
    assert doc["diff"] == [] and doc["equal"] is True
    _report(9, "CLI determinism, cache cold and warm")
