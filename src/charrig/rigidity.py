"""Candidate character families and their rigidity machinery.

A family assigns to every dominant weight up to a height bound a
unitriangular invariant-ring element supported on its saturated set.
From such a family one can extract structure constants (the coefficients
of the product expansion in the family basis), rebuild the family from a
structure-constant oracle, and test the two conditions that force the
family to be the true characters: the small-support multiplicity
condition and the tensor duality condition.

Which pairs and triples the duality check reads, and the true
characters' structure constants there, depend only on the rank and the
height bound, so _layout computes them once per (rank, bound), the one
truth table: one row per unordered pair, the true family's
Brauer-Klimyk row from tensor_decompose, each ordered pair's slot, the
skipped triples, each weight's place in the index, which rows read each
member and, filled as checks first reach them, which comparisons read
each entry of a row, each comparison named by one integer that sorts in
pair order and kept with its record.  lr_table is those rows.  The
support check reads only each weight's small-support sites, which
_small_support keeps per weight, so it builds no table.  Both checks
take only the family: each reads the true characters on its bound from
oracle.true_characters, so no caller can hand it another truth, and
reads again only what a member that differs from them changes.  Structure
constants do not depend on the basis they are written in, so the duality
check writes a member that differs as the true character plus a sum of
characters below it (through oracle.inverse_kostka, h(mu) in the
character basis), and a row that reads it as its difference from the
truth's row; no ring product is formed.  The truth's rows satisfy the
identity, so only the comparisons that read a moved entry are made.
reconstruct_family is the one library caller that forms ring products.
extract_structure_constants is the product route, and the tests'
reference for those rows.
"""

import collections
import functools

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
from .oracle import freudenthal_character, inverse_kostka, tensor_decompose, true_characters
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


class CharacterFamily(collections.namedtuple("CharacterFamily", "rank bound members")):
    """An indexed collection {lam: f_lam} over all dominant weights with
    height(lam) <= bound."""

    __slots__ = ()

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
    the lattice index; it builds no layout.  The characters are those of
    oracle.true_characters, and every call returns its own dict of them."""
    return CharacterFamily(l, bound, dict(true_characters(l, bound, cache_dir)))


def default_split(lam: Eps) -> tuple[Eps, Eps]:
    """Split lam = omega_i + (lam - omega_i), i the smallest index with a
    positive fundamental coordinate."""
    l = len(lam) - 1
    fc = list(fundamental_coords(lam))
    i = next(k for k, c in enumerate(fc) if c > 0)
    fc[i] -= 1
    return fundamental_weight(l, i + 1), from_fundamental(l, fc)


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
            f = members[mu] * members[nu]
            for s, ns in row.items():
                if ns:
                    f = f - ns * members[s]
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
    bound, zeros included (so absence genuinely means missing): the
    truth's row in the layout's slot of each pair, over the saturated
    set of mu + nu.  Each factor's character is fetched through
    cache_dir first, so the directory gets exactly their files."""
    # height is additive on dominant weights and omega_1 has the least
    # nonzero height, so the factors are the nonzero mu with room for it
    for mu in dominant_weights_up_to(l, bound - height(fundamental_weight(l, 1)))[1:]:
        freudenthal_character(l, mu, cache_dir)
    layout = _layout(l, bound)
    # the zero weight is the only all-zero key
    return {
        (mu, nu, s): n
        for (mu, nu), k in layout.slots.items()
        if any(mu) and any(nu)
        for s, n in layout.rows[k][2].items()
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
    return expand(
        (members[mu] * members[nu]).terms, saturated_dominants(lam0), lambda t: members[t].terms
    )


class _Layout(
    collections.namedtuple(
        "_Layout", "rows slots skipped positions readers entry_readers comparisons"
    )
):
    """The one truth table of a rank and bound: what the duality check
    reads of the true family, none of it a candidate's members.

    A slot is an index into rows, which holds one (a, b, row) per
    unordered pair, in the order the ordered pairs first meet it: row is
    the truth's tensor_decompose row over Pi+(a + b) in order, zeros
    included.  slots maps both orders of each pair to its slot, one
    ordered pair (mu, nu) with mu + nu in bound per key, in pair order.
    skipped lists the triples (mu, nu, lam), lam a weight of the row of
    (mu, nu), whose dual pair (lam, nu*) has no slot because lam + nu*
    leaves the bound, in the order the pairs and their rows give them.

    positions[lam] is lam's place in the index, which ascends in
    processing order, so pairs run in the order of their factors' places
    and each row in descending order of its weights' places.
    readers[lam], keyed by the index set, lists the ascending slots whose
    row reads member lam, as one of its two factors or at a nonzero
    coefficient.

    entry_readers, filled on a check's first use of an entry, maps slot k
    to {t: [c, ...]}: the comparisons that read entry t of rows[k], as
    their own row or as their dual row.  The comparison of pair
    (mu, nu), slot k', at lam with its dual slot d at mu is named by the
    integer c = (p(mu) P + p(nu)) P + P - 1 - p(lam), p = positions and P
    the index size, so that the c sort as (p(mu), p(nu), -p(lam)): in the
    order of pairs and their rows' weights.  comparisons[c] holds its
    record (mu, nu, lam, k', d), once.  At most four comparisons read an
    entry: with (x, y) either order of k's pair, those of (x, y) at t and
    of (t, y*) at x."""

    __slots__ = ()


@functools.cache
def _layout(l: int, bound: int) -> _Layout:
    index = dominant_weights_up_to(l, bound)
    inside = set(index)
    # index ascends by height and height is additive on dominant weights,
    # so the first b out of bound ends a's pairs
    rows = []
    slot: dict[tuple[Eps, Eps], int] = {}  # (a, b): the index of its row
    readers: dict[Eps, list[int]] = {lam: [] for lam in index}
    for a in index:
        for b in index:
            lam0 = add(a, b)
            if lam0 not in inside:
                break
            # the product commutes, so (b, a) reads the row of (a, b)
            if (b, a) in slot:
                slot[a, b] = slot[b, a]
                continue
            k = slot[a, b] = len(rows)
            row = tensor_decompose(l, a, b)
            for lam in {a, b, *row}:
                readers[lam].append(k)
            rows.append((a, b, {t: row.get(t, 0) for t in saturated_dominants(lam0)}))
    skipped = []
    # slot holds every ordered pair once, in pair order
    for (mu, nu), k in slot.items():
        nus = dual_weight(nu)
        skipped += [(mu, nu, lam) for lam in rows[k][2] if (lam, nus) not in slot]
    return _Layout(
        tuple(rows),
        slot,
        tuple(skipped),
        {lam: p for p, lam in enumerate(index)},
        {lam: tuple(ks) for lam, ks in readers.items()},
        {},
        {},
    )


@functools.cache
def _small_support(lam: Eps) -> tuple[Eps, ...]:
    """The mu in the saturated set of lam where lam - mu misses a simple
    root: the sites of member lam that the support check compares."""
    l = len(lam) - 1
    return tuple(
        mu for mu in saturated_dominants(lam) if support_size(root_coordinates(lam, mu)) < l
    )


def check_support_condition(fam: CharacterFamily) -> list[tuple]:
    """Compare the multiplicities of fam against those of the true
    characters on its bound, oracle.true_characters, at every site where
    lam - mu misses at least one simple root.

    Returns (lam, mu, expected, found) violation tuples, in index order.
    Raises ValueError when the index set is not the dominant weights in
    bound."""
    members, truth_members = fam.members, true_characters(fam.rank, fam.bound)
    if members.keys() != truth_members.keys():
        raise ValueError("index set is not exactly the dominant weights in bound")
    violations = []
    for lam, t in truth_members.items():
        f = members[lam]
        if f is t:  # a member shared with the true family
            continue
        for mu in _small_support(lam):
            expected = t.coefficient(mu)
            found = f.coefficient(mu)
            if expected != found:
                violations.append((lam, mu, expected, found))
    return violations


def _row_delta(layout: _Layout, k: int, changed: dict) -> dict[Eps, int]:
    """How the structure constants N of slot k's pair (a, b) differ from
    the truth's row R, the nonzero differences only.  changed maps each
    member that differs from the truth's to E_lam, f_lam = ch_lam +
    sum_s E_lam[s] ch_s, in decreasing processing order.

    In the character basis f_a * f_b is R plus dP, the truth's rows of
    (s, b), (a, r) and (s, r) weighted by E_a[s], E_b[r] and both, and
    sum_t N[t] f_t has N[t] + sum_u N[u] E_u[t] at ch_t.  So dN[t] =
    dP[t] - sum_u (R[u] + dN[u]) E_u[t], u over the changed members.
    E_u[t] != 0 only for t strictly below u, so taking the changed u
    top-down, dN[u] is final when u is reached."""
    rows, slots = layout.rows, layout.slots
    a, b, row = rows[k]
    ea, eb = changed.get(a), changed.get(b)
    parts = []
    if ea:
        parts += [(c, slots[s, b]) for s, c in ea.items()]
        if eb:
            parts += [(cs * cr, slots[s, r]) for s, cs in ea.items() for r, cr in eb.items()]
    if eb:
        parts += [(c, slots[a, r]) for r, c in eb.items()]
    delta: dict[Eps, int] = {}
    for c, slot in parts:
        for t, n in rows[slot][2].items():
            if n:
                delta[t] = delta.get(t, 0) + c * n
    for u, e in changed.items():
        c = row.get(u, 0) + delta.get(u, 0)
        if c:
            for s, x in e.items():
                delta[s] = delta.get(s, 0) - c * x
    return {t: d for t, d in delta.items() if d}


def _entry_readers(layout: _Layout, k: int, t: Eps) -> list[int]:
    """The ids of the comparisons that read entry t of rows[k], each
    record kept in layout.comparisons: see _Layout."""
    rows, slots, pos, records = layout.rows, layout.slots, layout.positions, layout.comparisons
    size = len(pos)
    a, b, row = rows[k]
    out = []
    for x, y in ((a, b), (b, a)) if a != b else ((a, b),):
        ys = dual_weight(y)
        s = slots.get((t, ys))
        if s is not None:
            # pair (x, y) compares its entry at t with entry x of its dual
            # slot s = (t, y*), and pair (t, y*), whose slot is s, its entry
            # at x with entry t of its dual slot (x, y) = k
            c = (pos[x] * size + pos[y]) * size + size - 1 - pos[t]
            records.setdefault(c, (x, y, t, k, s))
            out.append(c)
            if x in rows[s][2]:
                c = (pos[t] * size + pos[ys]) * size + size - 1 - pos[x]
                records.setdefault(c, (t, ys, x, s, k))
                out.append(c)
    return out


def check_duality_condition(fam: CharacterFamily) -> tuple[list[tuple], list[tuple]]:
    """Check the tensor duality identity n_{mu nu}^lam = n_{lam nu*}^mu on
    every triple whose dual pair (lam, nu*) has a row in bound, against
    the true characters on fam's bound, oracle.true_characters.

    Returns (violations, skipped): violations is a new list of
    (mu, nu, lam, lhs, rhs) tuples, skipped the layout's one tuple of the
    (mu, nu, lam) triples whose dual pair (lam, nu*) has no row in bound.
    Raises ValueError when the index set is not the dominant weights in
    bound, and when a member that differs from the truth's is not
    unitriangular with support in its saturated set.

    Each row is the truth's unless it reads a member that differs from
    the truth's, and such a row is computed only as its difference from
    the truth's row (_row_delta); no ring product is formed.  The truth's
    rows satisfy the identity (c^lam_{mu nu} = c^mu_{lam nu*}), so a
    triple can fail only where one of its two entries moved, and only
    the comparisons that read a moved entry are made, in pair order."""
    truth_members = true_characters(fam.rank, fam.bound)
    if fam.members.keys() != truth_members.keys():
        raise ValueError("index set is not exactly the dominant weights in bound")
    layout = _layout(fam.rank, fam.bound)
    changed = {}
    for lam, f in fam.members.items():
        t = truth_members[lam]
        if f is t or f == t:
            continue
        if f.coefficient(lam) != 1:
            raise ValueError(f"member {lam} is not unitriangular")
        # the true character's terms are the whole saturated set
        if not f.terms.keys() <= t.terms.keys():
            raise ValueError(f"member {lam} has support outside its saturated set")
        # decompose is linear: f = ch_lam + sum_s e[s] ch_s, e the sum of
        # (f - ch_lam)[mu] K^-1(mu)
        e: dict[Eps, int] = {}
        for mu, n in t.terms.items():
            d = f.terms.get(mu, 0) - n
            if d:
                for s, x in inverse_kostka(mu).items():
                    e[s] = e.get(s, 0) + d * x
        changed[lam] = {s: x for s, x in e.items() if x}
    changed = dict(sorted(changed.items(), key=lambda kv: processing_key(kv[0]), reverse=True))
    # a row whose factors are the truth's moves only where it reads a
    # changed member at a nonzero coefficient
    stale = {k for lam in changed for k in layout.readers[lam]}
    deltas = {k: _row_delta(layout, k, changed) for k in stale}
    compared = set()
    for k, delta in deltas.items():
        readers = layout.entry_readers.setdefault(k, {})
        for t in delta:
            found = readers.get(t)
            if found is None:
                found = readers[t] = _entry_readers(layout, k, t)
            compared.update(found)
    rows, records, unmoved = layout.rows, layout.comparisons, {}
    violations = []
    # the comparison ids sort in pair order, then in their row's order
    for c in sorted(compared):
        mu, nu, lam, k, d = records[c]
        dl, dr = deltas.get(k, unmoved).get(lam, 0), deltas.get(d, unmoved).get(mu, 0)
        if dl != dr:
            violations.append((mu, nu, lam, rows[k][2][lam] + dl, rows[d][2].get(mu, 0) + dr))
    return violations, layout.skipped


class ConditionReport(
    collections.namedtuple(
        "ConditionReport", "support_violations duality_violations skipped members_equal"
    )
):
    """Verdicts of the two rigidity checks, with per-violation witnesses."""

    __slots__ = ()

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
    against the true characters.  The truth is fetched through cache_dir
    once, before the checks, which read the same oracle.true_characters
    dict."""
    truth = true_characters(fam.rank, fam.bound, cache_dir)
    support_violations = check_support_condition(fam)
    duality_violations, skipped = check_duality_condition(fam)
    return ConditionReport(support_violations, duality_violations, skipped, fam.members == truth)


def perturb_family(
    fam: CharacterFamily, lam: Eps, mu: Eps, delta: int
) -> CharacterFamily:
    """Copy of fam with the coefficient of h(mu) in f_lam shifted by
    delta."""
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
    return CharacterFamily(fam.rank, fam.bound, members)


def perturbation_sites(fam: CharacterFamily) -> list[tuple[Eps, Eps]]:
    """All legal (lam, mu) perturbation sites of the family."""
    out = []
    for lam in fam.index_set():
        for mu in saturated_dominants(lam):
            if mu != lam:
                out.append((lam, mu))
    return out
