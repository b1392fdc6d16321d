"""Candidate character families and their rigidity machinery.

A family assigns to every dominant weight up to a height bound a
unitriangular invariant-ring element supported on its saturated set.
From such a family one can extract structure constants (the coefficients
of the product expansion in the family basis), rebuild the family from a
structure-constant oracle, and test the two conditions that force the
family to be the true characters: the small-support multiplicity
condition and the tensor duality condition.
"""

import functools
import itertools
import random
from dataclasses import dataclass

from .lattice import (
    Eps,
    add,
    dual_weight,
    dominant_weights_up_to,
    from_fundamental,
    fundamental_coords,
    fundamental_weight,
    height,
    processing_key,
    root_coordinates,
    saturated_dominants,
    support_size,
)
from .oracle import freudenthal_character, tensor_decompose
from .ring import CharElement, orbit_sum, unit


class BoundExceeded(ValueError):
    """A required weight falls outside the family's height bound."""


class OracleIncomplete(LookupError):
    """The structure-constant oracle cannot answer a required triple."""

    def __init__(self, mu: Eps, nu: Eps, s: Eps):
        self.triple = (mu, nu, s)
        super().__init__(f"oracle has no entry for {(mu, nu, s)}")


class PerturbationError(ValueError):
    """Requested perturbation site is invalid."""


@dataclass(frozen=True)
class CharacterFamily:
    """An indexed collection {lam: f_lam} over all dominant weights with
    height(lam) <= bound."""

    rank: int
    bound: int
    members: dict

    def member(self, lam: Eps) -> CharElement:
        try:
            return self.members[lam]
        except KeyError:
            raise BoundExceeded(
                f"{lam} (height {height(lam)}) outside bound {self.bound}"
            ) from None

    def index_set(self) -> list[Eps]:
        return sorted(self.members, key=processing_key)


def validate_family(fam: CharacterFamily) -> None:
    """Check the structural invariants: complete downward-closed index
    set, unitriangularity, and support inside the saturated set."""
    expected = set(dominant_weights_up_to(fam.rank, fam.bound))
    if set(fam.members) != expected:
        raise ValueError("index set is not exactly the dominant weights in bound")
    for lam, f in fam.members.items():
        if f.rank != fam.rank:
            raise ValueError(f"member {lam} has wrong rank")
        if f.coefficient(lam) != 1:
            raise ValueError(f"member {lam} is not unitriangular")
        allowed = set(saturated_dominants(lam))
        if not set(f.terms) <= allowed:
            raise ValueError(f"member {lam} has support outside its saturated set")


def true_family(l: int, bound: int, cache_dir: str | None = None) -> CharacterFamily:
    """The family of genuine characters on the given bound."""
    members = {
        lam: freudenthal_character(l, lam, cache_dir)
        for lam in dominant_weights_up_to(l, bound)
    }
    return CharacterFamily(l, bound, members)


def default_split(lam: Eps) -> tuple[Eps, Eps]:
    """Split lam = omega_i + (lam - omega_i), i the smallest index with a
    positive fundamental coordinate."""
    l = len(lam) - 1
    fc = list(fundamental_coords(lam))
    i = next(k for k, c in enumerate(fc) if c > 0)
    fc[i] -= 1
    return fundamental_weight(l, i + 1), from_fundamental(l, fc)


def random_split(seed: int):
    """A deterministic randomized split rule: any mu with 0 < mu < lam
    componentwise in fundamental coordinates."""
    rng = random.Random(seed)

    def split(lam: Eps) -> tuple[Eps, Eps]:
        l = len(lam) - 1
        fc = fundamental_coords(lam)
        choices = [
            c
            for c in itertools.product(*(range(k + 1) for k in fc))
            if any(c) and c != fc
        ]
        mu_fc = rng.choice(choices)
        mu = from_fundamental(l, mu_fc)
        nu = from_fundamental(l, [a - b for a, b in zip(fc, mu_fc)])
        return mu, nu

    return split


def reconstruct_family(
    oracle, l: int, bound: int, split=None
) -> CharacterFamily:
    """Rebuild a family from a structure-constant oracle.

    The oracle is any callable (mu, nu, s) -> int.  Base cases are the
    zero weight (the ring identity) and the fundamental weights (plain
    orbit sums); every other member is the product of its split parts
    minus the oracle-weighted lower members.
    """
    if split is None:
        split = default_split
    members: dict[Eps, CharElement] = {}
    for lam in dominant_weights_up_to(l, bound):
        fc = fundamental_coords(lam)
        if not any(fc):
            members[lam] = unit(l)
        elif sum(fc) == 1:
            members[lam] = orbit_sum(lam)
        else:
            mu, nu = split(lam)
            if add(mu, nu) != lam or not any(fundamental_coords(mu)) or not any(
                fundamental_coords(nu)
            ):
                raise ValueError(f"invalid split {mu} + {nu} for {lam}")
            row = {s: oracle(mu, nu, s) for s in saturated_dominants(lam) if s != lam}
            f = _recursion_step(members, mu, nu, row)
            assert f.coefficient(lam) == 1
            members[lam] = f
    return CharacterFamily(l, bound, members)


def lr_oracle(l: int, cache_dir: str | None = None):
    """Oracle answering with genuine Littlewood-Richardson coefficients."""
    row = functools.cache(lambda mu, nu: tensor_decompose(l, mu, nu, cache_dir))

    def query(mu: Eps, nu: Eps, s: Eps) -> int:
        return row(mu, nu).get(s, 0)

    return query


def lr_table(l: int, bound: int, cache_dir: str | None = None) -> dict:
    """Full table {(mu, nu, lam): value} of Littlewood-Richardson
    coefficients for all nonzero dominant pairs whose sum stays in
    bound, zeros included (so absence genuinely means missing)."""
    weights = [
        w for w in dominant_weights_up_to(l, bound) if any(fundamental_coords(w))
    ]
    entries: dict[tuple[Eps, Eps, Eps], int] = {}
    for mu in weights:
        for nu in weights:
            lam0 = add(mu, nu)
            if height(lam0) > bound:
                continue
            row = tensor_decompose(l, mu, nu, cache_dir)
            for s in saturated_dominants(lam0):
                entries[(mu, nu, s)] = row.get(s, 0)
    return entries


def table_oracle(entries: dict):
    """Oracle backed by a stored table; missing triples abort."""

    def query(mu: Eps, nu: Eps, s: Eps) -> int:
        if (mu, nu, s) in entries:
            return entries[(mu, nu, s)]
        if (nu, mu, s) in entries:
            return entries[(nu, mu, s)]
        raise OracleIncomplete(mu, nu, s)

    return query


def extract_structure_constants(
    fam: CharacterFamily, mu: Eps, nu: Eps
) -> dict[Eps, int]:
    """Coefficients n^t of f_mu * f_nu = sum n^t f_t, over the full
    saturated set of mu + nu (zeros included).

    Computed top-down: the convolution coefficient at t minus the
    already-known contributions of everything above t."""
    lam0 = add(mu, nu)
    if height(lam0) > fam.bound:
        raise BoundExceeded(
            f"{lam0} (height {height(lam0)}) outside bound {fam.bound}"
        )
    prod = fam.member(mu) * fam.member(nu)
    row: dict[Eps, int] = {}
    for t in saturated_dominants(lam0):
        val = prod.coefficient(t)
        for s, ns in row.items():
            if ns:
                val -= ns * fam.members[s].coefficient(t)
        row[t] = val
    return row


def _recursion_step(
    members: dict, mu: Eps, nu: Eps, row: dict[Eps, int]
) -> CharElement:
    """f_mu * f_nu - sum row[s] * f_s over the row's weights s other than
    mu + nu: f_{mu+nu} itself when row holds its structure constants."""
    lam0 = add(mu, nu)
    f = members[mu] * members[nu]
    for s, ns in row.items():
        if ns and s != lam0:
            f = f - ns * members[s]
    return f


def multiplicity_from_product(
    fam: CharacterFamily, mu: Eps, nu: Eps, t: Eps, row: dict[Eps, int]
) -> int:
    """The coefficient of e(t) in the recursion formula for f_{mu+nu},
    which never reads f_{mu+nu} itself.  row maps s to n^s_{mu nu} from
    any source: extract_structure_constants, or an independent oracle
    such as tensor_decompose."""
    return _recursion_step(fam.members, mu, nu, row).e_coefficient(t)


def check_support_condition(
    fam: CharacterFamily, cache_dir: str | None = None
) -> list[tuple]:
    """Compare family multiplicities against true multiplicities at
    every site where lam - mu misses at least one simple root.

    Returns (lam, mu, expected, found) violation tuples."""
    l = fam.rank
    violations = []
    for lam in fam.index_set():
        truth = freudenthal_character(l, lam, cache_dir)
        f = fam.members[lam]
        for mu in saturated_dominants(lam):
            beta = root_coordinates(lam, mu)
            if support_size(beta) < l:
                expected = truth.coefficient(mu)
                found = f.coefficient(mu)
                if expected != found:
                    violations.append((lam, mu, expected, found))
    return violations


def check_duality_condition(
    fam: CharacterFamily,
) -> tuple[list[tuple], list[tuple]]:
    """Check the tensor duality identity n_{mu nu}^lam = n_{lam nu*}^mu on
    every triple whose dual pair (lam, nu*) has a row in bound.

    Returns (violations, skipped): violations are
    (mu, nu, lam, lhs, rhs) tuples, skipped are (mu, nu, lam) triples
    whose dual pair (lam, nu*) has no row in bound."""
    violations: list[tuple] = []
    skipped: list[tuple] = []
    members = fam.index_set()
    rows = {
        (a, b): extract_structure_constants(fam, a, b)
        for a in members
        for b in members
        if height(add(a, b)) <= fam.bound
    }
    for (mu, nu), row in rows.items():
        nw = dual_weight(nu)
        for lam in saturated_dominants(add(mu, nu)):
            dual_row = rows.get((lam, nw))
            if dual_row is None:
                skipped.append((mu, nu, lam))
                continue
            lhs, rhs = row[lam], dual_row.get(mu, 0)
            if lhs != rhs:
                violations.append((mu, nu, lam, lhs, rhs))
    return violations, skipped


@dataclass
class ConditionReport:
    """Verdicts of the two rigidity checks, with per-violation witnesses."""

    support_violations: list
    duality_violations: list
    skipped: list
    members_equal: bool

    @property
    def support_pass(self) -> bool:
        return not self.support_violations

    @property
    def duality_pass(self) -> bool:
        return not self.duality_violations

    @property
    def passed(self) -> bool:
        return self.support_pass and self.duality_pass


def verify_family(
    fam: CharacterFamily, cache_dir: str | None = None
) -> ConditionReport:
    """Run both condition checks and compare the family memberwise
    against the true characters."""
    support_violations = check_support_condition(fam, cache_dir)
    duality_violations, skipped = check_duality_condition(fam)
    equal = all(
        fam.members[lam] == freudenthal_character(fam.rank, lam, cache_dir)
        for lam in fam.index_set()
    )
    return ConditionReport(support_violations, duality_violations, skipped, equal)


def perturb_family(
    fam: CharacterFamily, lam: Eps, mu: Eps, delta: int
) -> CharacterFamily:
    """Copy of fam with the coefficient of h(mu) in f_lam shifted by delta."""
    if not isinstance(delta, int) or delta == 0:
        raise PerturbationError("delta must be a nonzero integer")
    if lam not in fam.members:
        raise PerturbationError(f"{lam} is not in the family")
    if mu == lam:
        raise PerturbationError("the leading coefficient must stay 1")
    if mu not in saturated_dominants(lam):
        raise PerturbationError(f"{mu} is not in the saturated set of {lam}")
    old = fam.members[lam]
    terms = dict(old.terms)
    terms[mu] = terms.get(mu, 0) + delta
    members = dict(fam.members)
    members[lam] = CharElement(fam.rank, terms)
    return CharacterFamily(fam.rank, fam.bound, members)


def perturbation_sites(fam: CharacterFamily) -> list[tuple[Eps, Eps]]:
    """All legal (lam, mu) perturbation sites of the family."""
    out = []
    for lam in fam.index_set():
        for mu in saturated_dominants(lam):
            if mu != lam:
                out.append((lam, mu))
    return out
