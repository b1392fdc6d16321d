"""Candidate character families and their rigidity machinery.

A family assigns to every dominant weight up to a height bound a
unitriangular invariant-ring element supported on its saturated set.
From such a family one can extract structure constants (the coefficients
of the product expansion in the family basis), rebuild the family from a
structure-constant oracle, and test the two conditions that force the
family to be the true characters: the small-support multiplicity
condition and the tensor duality condition.

Each family carries one memo dict, which perturb_family hands to the
copy as it is.  It keeps, per (rank, bound), the state of the first,
cold duality check of any family that shares it: the member objects it
read, the product of each row's two factors, the rows and each pair's
violations.  A later check, by that family or by any other that shares
the memo, compares its members with the kept objects by identity.  It
rebuilds only the rows that read a member that differs, as a factor or
at a nonzero kept coefficient, forms a new product only for a row with
a factor that differs, re-runs only the pairs that read those rows, and
keeps none of that work.  A member replaced in
place in fam.members differs from the kept object, so it is never read
stale.  The memo changes only the speed: every result is identical with
it cold, warm or absent, and every returned list and row is a fresh
object.

Which pairs, triples and small-support sites the two checks read depends
only on the rank and the height bound, never on the members.  _Layout
holds the pairs, the sites, one row per unordered pair, and the dual
slots: for each triple (mu, nu, lam), the row of its dual pair
(lam, nu*), or no row when that pair leaves the bound.  Those skipped
triples are listed in the layout once, and each duality check returns
its own copy of the list.  So the check builds each unordered pair's row
once, expanding the product of its two members as
extract_structure_constants does, and compares each triple with the row
in its slot, with no add, dual_weight or pair lookup per triple.  Two
inverse indices give the incremental check its work: the slots whose row
reads each member, and the pairs that read each slot.  _layout computes
the layout once per (rank, bound) and keeps it for the life of the
process, as lattice keeps each weight's saturated set and dual.  Both
checks refuse a family whose index set is not the layout's.  Like the
memo, the layout changes only the speed: every result is identical with
it cold or warm.

true_family is the one reference: the family of true characters, indexed
by the layout.  The support check compares two families, a candidate and
that reference, and skips a member that is the reference's own object, as
every member a perturbation shares with it is.  verify_family fetches each
true character once, for the support check and the memberwise comparison
alike.  lr_table tabulates lr_oracle, the Brauer-Klimyk rows of
tensor_decompose, one call per unordered pair, with no family and no ring
product: only the duality check and extract_structure_constants form
structure-constant rows.
"""

import functools
import itertools
import random
from dataclasses import dataclass, field
from typing import NamedTuple

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
    zero_weight,
)
from .oracle import freudenthal_character, tensor_decompose
from .ring import CharElement, expand, orbit_sum, unit


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
    height(lam) <= bound.

    memo is shared with every copy perturb_family makes.  A cold duality
    check maps (rank, bound) in it to (members, prods, rows, found): the
    member objects in layout order, the product of each slot's two
    factors, the rows by slot and, for each pair, its violations or
    None.  It takes no part in == or repr."""

    rank: int
    bound: int
    members: dict
    memo: dict = field(default_factory=dict, compare=False, repr=False)

    def index_set(self) -> list[Eps]:
        return sorted(self.members, key=processing_key)


def validate_family(fam: CharacterFamily) -> None:
    """Check the structural invariants: complete downward-closed index
    set, unitriangularity, and support inside the saturated set.

    The index set is exactly the dominant weights in bound when it holds
    0, stays in bound and holds every lam + omega_i in bound: height is
    additive on dominant weights, so each of them is reached from 0 by
    such steps.  This reads each member once, whatever the bound."""
    l, members = fam.rank, fam.members
    steps = [(w, height(w)) for w in (fundamental_weight(l, i) for i in range(1, l + 1))]
    if zero_weight(l) not in members or any(
        h > fam.bound
        or any(h + hw <= fam.bound and add(lam, w) not in members for w, hw in steps)
        for lam, h in zip(members, map(height, members))
    ):
        raise ValueError("index set is not exactly the dominant weights in bound")
    for lam, f in members.items():
        if f.rank != l:
            raise ValueError(f"member {lam} has wrong rank")
        if f.coefficient(lam) != 1:
            raise ValueError(f"member {lam} is not unitriangular")
        allowed = set(saturated_dominants(lam))
        if not set(f.terms) <= allowed:
            raise ValueError(f"member {lam} has support outside its saturated set")


def true_family(l: int, bound: int, cache_dir: str | None = None) -> CharacterFamily:
    """The family of genuine characters on the given bound, indexed by
    the layout: the reference every comparison with the truth reads."""
    members = {lam: freudenthal_character(l, lam, cache_dir) for lam in _layout(l, bound).sites}
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
            if f.coefficient(lam) != 1:
                raise ArithmeticError(f"rebuilt member {lam} must have leading coefficient 1")
            members[lam] = f
    return CharacterFamily(l, bound, members)


def lr_oracle(l: int, cache_dir: str | None = None):
    """Oracle answering with genuine Littlewood-Richardson coefficients,
    from one tensor_decompose per unordered pair: the row is symmetric."""
    row = functools.cache(lambda mu, nu: tensor_decompose(l, mu, nu, cache_dir))

    def query(mu: Eps, nu: Eps, s: Eps) -> int:
        return (row(mu, nu) if mu <= nu else row(nu, mu)).get(s, 0)

    return query


def lr_table(l: int, bound: int, cache_dir: str | None = None) -> dict:
    """Full table {(mu, nu, lam): value} of Littlewood-Richardson
    coefficients for all nonzero dominant pairs whose sum stays in
    bound, zeros included (so absence genuinely means missing): lr_oracle
    over the layout's pairs, each row over the saturated set of mu + nu."""
    query = lr_oracle(l, cache_dir)
    return {
        (mu, nu, s): query(mu, nu, s)
        for mu, nu, lam0 in _layout(l, bound).pairs
        if any(mu) and any(nu)  # the zero weight is the only all-zero key
        for s in saturated_dominants(lam0)
    }


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
    saturated set of mu + nu (zeros included), by ring.expand."""
    lam0 = add(mu, nu)
    if lam0 not in fam.members:
        raise BoundExceeded(
            f"{lam0} (height {height(lam0)}) outside bound {fam.bound}"
        )
    members = fam.members
    return expand(members[mu] * members[nu], saturated_dominants(lam0), members.__getitem__)


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


class _Layout(NamedTuple):
    """What the two checks read of a family with a given rank and bound,
    none of it the members themselves.

    A slot is an index into rows, which holds one (a, b, Pi+(a + b)) per
    unordered pair, in the order pairs first meets it.  For the k-th pair
    (mu, nu, lam0), duals[k] is the slot of (mu, nu) and, for each lam of
    saturated_dominants(lam0) in order, the slot of the dual pair
    (lam, nu*), or None when lam + nu* leaves the bound; skipped lists
    those triples (mu, nu, lam), in the order the pairs give them.

    readers and users invert those indices.  The row of slot (a, b,
    weights) reads the members a, b and those of weights, so readers[lam]
    lists, in ascending order, the slots whose row reads member lam;
    users[slot] lists, in ascending order, the indices into pairs whose
    comparisons read that slot, as their own row or as a dual slot."""

    pairs: tuple[tuple[Eps, Eps, Eps], ...]  # (a, b, a + b), a + b in bound
    # lam: the mu in its saturated set where lam - mu misses a simple
    # root, keyed by the index set in index_set() order
    sites: dict[Eps, tuple[Eps, ...]]
    rows: tuple[tuple[Eps, Eps, tuple[Eps, ...]], ...]
    duals: tuple[tuple[int, tuple[int | None, ...]], ...]
    skipped: tuple[tuple[Eps, Eps, Eps], ...]
    readers: dict[Eps, tuple[int, ...]]
    users: tuple[tuple[int, ...], ...]


@functools.cache
def _layout(l: int, bound: int) -> _Layout:
    index = tuple(dominant_weights_up_to(l, bound))
    inside = set(index)
    # index ascends by height and height is additive on dominant weights,
    # so the first b out of bound ends a's pairs
    pairs = []
    rows = []
    slot: dict[tuple[Eps, Eps], int] = {}  # (a, b): the index of its row
    for a in index:
        for b in index:
            lam0 = add(a, b)
            if lam0 not in inside:
                break
            pairs.append((a, b, lam0))
            # the product commutes, so (b, a) reads the row of (a, b)
            if (b, a) in slot:
                slot[a, b] = slot[b, a]
            else:
                slot[a, b] = len(rows)
                rows.append((a, b, saturated_dominants(lam0)))
    sites = {
        lam: tuple(
            mu
            for mu in saturated_dominants(lam)
            if support_size(root_coordinates(lam, mu)) < l
        )
        for lam in index
    }
    duals = []
    skipped = []
    for mu, nu, lam0 in pairs:
        nw = dual_weight(nu)
        weights = saturated_dominants(lam0)
        slots = tuple(map(slot.get, zip(weights, itertools.repeat(nw))))
        if None in slots:
            skipped += [(mu, nu, lam) for lam, k in zip(weights, slots) if k is None]
        duals.append((slot[mu, nu], slots))
    readers: dict[Eps, list[int]] = {lam: [] for lam in index}
    for k, (a, b, weights) in enumerate(rows):
        for lam in {a, b, *weights}:
            readers[lam].append(k)
    users: list[list[int]] = [[] for _ in rows]
    for i, (k, slots) in enumerate(duals):
        for s in {k, *slots} - {None}:
            users[s].append(i)
    return _Layout(
        tuple(pairs),
        sites,
        tuple(rows),
        tuple(duals),
        tuple(skipped),
        {lam: tuple(ks) for lam, ks in readers.items()},
        tuple(map(tuple, users)),
    )


def _family_layout(fam: CharacterFamily) -> _Layout:
    layout = _layout(fam.rank, fam.bound)
    if fam.members.keys() != layout.sites.keys():
        raise ValueError("index set is not exactly the dominant weights in bound")
    return layout


def check_support_condition(fam: CharacterFamily, truth: CharacterFamily) -> list[tuple]:
    """Compare the multiplicities of fam against those of truth, the
    true family on the same bound, at every site where lam - mu misses at
    least one simple root.

    Returns (lam, mu, expected, found) violation tuples.  Raises
    ValueError when the index set is not the dominant weights in bound."""
    layout = _family_layout(fam)
    violations = []
    for lam, sites in layout.sites.items():
        f, t = fam.members[lam], truth.members[lam]
        if f is t:  # a member shared with the true family
            continue
        for mu in sites:
            expected = t.coefficient(mu)
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
    whose dual pair (lam, nu*) has no row in bound.  Raises ValueError
    when the index set is not the dominant weights in bound.

    The first check of a family builds every row and keeps, in its memo,
    the members it read, each row's product, the rows and each pair's
    violations.  A later check of any family sharing the memo rebuilds
    only the rows that read a member that is not the kept object, at a
    nonzero kept coefficient or as a factor, forms a new product only
    for a replaced factor, re-runs only the pairs that read those rows,
    and keeps none of them."""
    layout = _family_layout(fam)
    basis = fam.members.__getitem__
    key = (fam.rank, fam.bound)
    state = fam.memo.get(key)
    if state is None:
        members = tuple(map(basis, layout.sites))
        prods = [basis(a) * basis(b) for a, b, _ in layout.rows]
        rows = [expand(p, weights, basis) for p, (_, _, weights) in zip(prods, layout.rows)]
        found = [_pair_violations(layout, i, rows) for i in range(len(layout.pairs))]
        fam.memo[key] = (members, prods, rows, found)
    else:
        members, prods, rows, found = state
        changed = {lam for lam, f in zip(layout.sites, members) if basis(lam) is not f}
        # a row whose factors are kept reads basis(lam) only where its
        # coefficient at lam is nonzero, so, top-down, it is unchanged
        # while every changed coefficient is 0
        stale = {
            k
            for lam in changed
            for k in layout.readers[lam]
            if lam in layout.rows[k][:2] or rows[k].get(lam)
        }
        if stale:
            rows = list(rows)
            for k in stale:
                a, b, weights = layout.rows[k]
                prod = basis(a) * basis(b) if a in changed or b in changed else prods[k]
                rows[k] = expand(prod, weights, basis)
            found = list(found)
            for i in {i for k in stale for i in layout.users[k]}:
                found[i] = _pair_violations(layout, i, rows)
    return [v for vs in found if vs for v in vs], list(layout.skipped)


def _pair_violations(layout: _Layout, i: int, rows: list) -> list[tuple] | None:
    """The violations of the i-th pair of the layout, in the order of its
    saturated set, or None when it has none."""
    mu, nu, lam0 = layout.pairs[i]
    k, slots = layout.duals[i]
    out = []
    # rows[k] and slots both follow saturated_dominants(lam0)
    for lam, lhs, dual in zip(saturated_dominants(lam0), rows[k].values(), slots):
        if dual is not None:
            rhs = rows[dual].get(mu, 0)
            if lhs != rhs:
                out.append((mu, nu, lam, lhs, rhs))
    return out or None


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
    against the true characters, each fetched once."""
    truth = true_family(fam.rank, fam.bound, cache_dir)
    support_violations = check_support_condition(fam, truth)
    duality_violations, skipped = check_duality_condition(fam)
    equal = fam.members == truth.members
    return ConditionReport(support_violations, duality_violations, skipped, equal)


def perturb_family(
    fam: CharacterFamily, lam: Eps, mu: Eps, delta: int
) -> CharacterFamily:
    """Copy of fam with the coefficient of h(mu) in f_lam shifted by
    delta.  The copy shares fam's memo, so a duality check of either
    starts from the state of the first one checked."""
    if type(delta) is not int or delta == 0:
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
    return CharacterFamily(fam.rank, fam.bound, members, fam.memo)


def perturbation_sites(fam: CharacterFamily) -> list[tuple[Eps, Eps]]:
    """All legal (lam, mu) perturbation sites of the family."""
    out = []
    for lam in fam.index_set():
        for mu in saturated_dominants(lam):
            if mu != lam:
                out.append((lam, mu))
    return out
