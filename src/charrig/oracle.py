"""Ground-truth character data for type A.

Weight multiplicities come from the Freudenthal recursion (exact integer
divisions throughout, checked), cross-checkable against the Weyl
dimension product formula.  The recursion runs on weights aligned to
lam's coordinate sum and keeps, for each dominant weight x it has
processed and each root alpha = e_i - e_j (i < j), the tail
sum_{k>=1} m(x + k alpha)(x + k alpha, alpha) of the root string through
x.  At mu, a permutation fixing mu carries (i, j) to (a, b), a the first
position holding mu_i and b the last holding mu_j; mu + e_a - e_b is
dominant and processed before mu, so the tail at mu is its multiplicity
times (mu_a - mu_b + 2) plus its own tail, or 0 when it is not a weight
(root strings are unbroken).  No weight is sorted.  Tensor product
multiplicities come from the Brauer-Klimyk formula: each weight of the
factor with fewer weights (lattice.weight_count) is added to the other's
highest weight plus rho and sorted into the dominant chamber, counted
with the sign of the sort, so no product is formed and no constituent's
character is read.  The pair differences of that sum are packed, one
biased field of w bits per root, into one integer F, where w is the
smallest multiple of 16 that holds the widest difference, so every input
fits with no fallback.  The adjacent pairs own the low fields, the rest
follow by distance.  One mask of the fields with a clear top bit tells a
sum already strictly decreasing (the mask is 0) from one on a wall (a
field at the bias, found by adding 1 to every field) and from one to
sort, whose sign is the parity of the mask's bits.  Each constituent is
keyed by the integer in the low fields, its fundamental coordinates each
plus the bias: F's own low fields when no sort is needed, else the
sorted sum's adjacent differences packed the same way.  The masks and
pair coefficients are memoized per (rank, width), and each key is
decoded to its weight once.  decompose writes any invariant element in
the character basis by unitriangular elimination, the same ring.expand
that rigidity.extract_structure_constants runs on a family.

Characters are memoized per (rank, weight), the true family's members
per (rank, bound) and K^-1 per weight; clear_memo() empties all three.
rigidity._layout, the duality table built from them, is the one memo of
the truth that outlives it: dropped too, it was rebuilt by every verify
pass of the cli benchmark, 11-13% of its wall_s.  Its rows are
Littlewood-Richardson coefficients, fixed by (rank, bound), so keeping
them is exact unless a cache file's lower multiplicities were edited
before they were built.  An optional directory adds a persistent JSON
spill of the characters, each file written atomically (to a temporary
name, then renamed).  A cache file must list the saturated dominants of
its weight in processing order, with positive JSON integer
multiplicities, 1 first; any other file is discarded and recomputed.  A
lower multiplicity changed to another positive integer is not detected.
A file's name and the mu rows it must list are facts about its weight,
memoized per weight like lattice's own memos, so they outlive
clear_memo().  Every read still opens, parses and checks the file
(os.read on a bare descriptor, with no file object); nothing about a
file is kept.
"""

import contextlib
import functools
import json
import operator
import os
from itertools import combinations

from .lattice import (
    Eps,
    canonical,
    dominant_weights_up_to,
    fundamental_coords,
    is_dominant,
    orbit,
    processing_key,
    rho,
    saturated_dominants,
    weight_count,
)
from .ring import CharElement, expand, orbit_sum

_MEMO: dict[tuple[int, Eps], CharElement] = {}
# true_characters' dicts by (rank, bound), each value also in _MEMO
_TRUTH: dict[tuple[int, int], dict[Eps, CharElement]] = {}


def clear_memo() -> None:
    _MEMO.clear()
    _TRUTH.clear()
    inverse_kostka.cache_clear()


@functools.cache
def _cache_path(cache_dir: str, l: int, lam: Eps) -> str:
    """The cache file of lam's character in cache_dir, memoized per
    directory and weight."""
    name = f"A{l}_" + "-".join(str(c) for c in fundamental_coords(lam)) + ".json"
    return os.path.join(cache_dir, name)


@functools.cache
def _mu_rows(lam: Eps) -> list[list[int]]:
    """The mu rows of lam's cache file: the fundamental coordinates of its
    saturated dominants in processing order, lam first.  Every caller is
    handed the same list, which none may change."""
    return [list(fundamental_coords(mu)) for mu in saturated_dominants(lam)]


def _load_cached(cache_dir: str, l: int, doms: tuple[Eps, ...]) -> CharElement | None:
    """The character of doms[0], whose saturated set is doms, read from
    its cache file; None when the file is missing or invalid."""
    lam = doms[0]
    try:
        # os.read on a bare descriptor: building no file object saves
        # about a third of a small file's read; bytes decoded as UTF-8
        # parse as the text-mode read does: JSON's only newlines are
        # whitespace; a BOM or a bad byte is a ValueError
        fd = os.open(_cache_path(cache_dir, l, lam), os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
        rows = json.loads(b"".join(chunks).decode("utf-8"))["terms"]
        coords = [row["mu"] for row in rows]
        mults = [row["coeff"] for row in rows]
    except (OSError, ValueError, KeyError, TypeError, RecursionError):
        return None
    # a true character is its multiplicities over the saturated set, so a
    # file can validly list only that set, in processing order; the types
    # are tested too, since [True, 0] == [1.0, 0] == [1, 0].
    if coords != _mu_rows(lam):
        return None
    for row in (*coords, mults):
        for x in row:
            if type(x) is not int:
                return None
    if mults[0] != 1 or min(mults) < 1:
        return None
    return CharElement._canonical(l, dict(zip(doms, mults)))


def _store_cached(cache_dir: str, l: int, doms: tuple[Eps, ...], elem: CharElement) -> None:
    """Write elem, the character of doms[0], whose terms are doms in
    order, to its cache file."""
    rows = _mu_rows(doms[0])
    doc = {
        "rank": l,
        "lambda": rows[0],
        "terms": [{"mu": mu, "coeff": c} for mu, c in zip(rows, elem.terms.values())],
    }
    path = _cache_path(cache_dir, l, doms[0])
    tmp = f"{path}.{os.getpid()}.tmp"  # never matches a cache name
    try:
        os.makedirs(cache_dir, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError:
        # cache is an optimization only: skip a directory that cannot be
        # created or written, and leave no partial file behind
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _checked_dominant(l: int, lam: Eps) -> Eps:
    """lam in canonical form; ValueError unless it is a dominant weight of A_l."""
    if len(lam) != l + 1:
        raise ValueError(f"weight {lam} has wrong length for A_{l}")
    lam = canonical(lam)
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    return lam


def freudenthal_character(l: int, lam: Eps, cache_dir: str | None = None) -> CharElement:
    """The formal character of the highest-weight module with highest
    weight lam, as {mu: multiplicity} over the saturated dominants.

    A memo hit returns before cache_dir is looked at, so a directory
    receives only the characters first computed with it in the process."""
    try:
        return _MEMO[l, lam]  # every key holds a checked canonical weight
    except (KeyError, TypeError):  # a miss, or an unhashable weight such as a list
        pass
    lam = _checked_dominant(l, lam)
    doms = saturated_dominants(lam)  # decreasing height, lam first
    key = (l, doms[0])  # the lattice's one object for lam, as in the terms
    if key in _MEMO:
        return _MEMO[key]
    if cache_dir:
        cached = _load_cached(cache_dir, l, doms)
        if cached is not None:
            _MEMO[key] = cached
            return cached

    n = l + 1
    total_sum = sum(lam)
    rho_v = rho(l)

    def norm(v: Eps) -> int:  # |v + rho|^2
        return sum([(a + r) ** 2 for a, r in zip(v, rho_v)])

    top_norm = norm(lam)
    # the positive roots e_i - e_j, i < j, with j running down for each i:
    # a pair's stabiliser image (a, b), a <= i and b >= j, then comes first
    pairs = [(i, j) for i in range(n) for j in range(n - 1, i, -1)]
    slot = {p: k for k, p in enumerate(pairs)}
    positions = list(range(n))
    # keyed by points aligned to lam's coordinate sum: the multiplicity and,
    # for each pair, the tail sum_{k>=1} m(x + k alpha)(x + k alpha, alpha)
    # of the string through x along alpha = e_i - e_j
    seen: dict[Eps, tuple[int, list[int]]] = {lam: (1, [0] * len(pairs))}
    mults = [1]
    for mu in doms[1:]:
        shift = (total_sum - sum(mu)) // n
        mu_al = tuple([x + shift for x in mu])
        # first[i] and last[j]: the first position holding mu_i and the last
        # holding mu_j, each position itself when no coordinate repeats
        first = last = positions
        if len(set(mu_al)) < n:
            first = [mu_al.index(v) for v in mu_al]
            rev = mu_al[::-1]
            last = [n - 1 - rev.index(v) for v in mu_al]
        tails: list[int] = []
        for k, (i, j) in enumerate(pairs):
            a, b = first[i], last[j]
            if a != i or b != j:
                # a permutation fixing mu carries (i, j) to (a, b)
                tails.append(tails[slot[a, b]])
                continue
            # x = mu + e_a - e_b is dominant and above mu, so it was processed
            # before mu iff it is a weight; if not, the string ends at mu
            x = list(mu_al)
            x[a] += 1
            x[b] -= 1
            hit = seen.get(tuple(x))
            tails.append(hit[0] * (x[a] - x[b]) + hit[1][k] if hit else 0)
        denom = top_norm - norm(mu_al)
        if denom <= 0:
            raise ArithmeticError("norm gap must be positive below the highest weight")
        m, rem = divmod(2 * sum(tails), denom)
        if rem:
            raise ArithmeticError("Freudenthal division must be exact")
        seen[mu_al] = (m, tails)
        mults.append(m)
    # the keys are saturated_dominants' own canonical dominant weights
    elem = CharElement._canonical(l, dict(zip(doms, mults)))
    _MEMO[key] = elem
    if cache_dir:
        _store_cached(cache_dir, l, doms, elem)
    return elem


def true_characters(l: int, bound: int, cache_dir: str | None = None) -> dict[Eps, CharElement]:
    """{lam: character} over the dominant weights of height <= bound, in
    index order, each fetched through cache_dir once per memo.  Every
    caller is handed the same dict, which none may change."""
    members = _TRUTH.get((l, bound))
    if members is None:
        members = _TRUTH[l, bound] = {
            lam: freudenthal_character(l, lam, cache_dir)
            for lam in dominant_weights_up_to(l, bound)
        }
    return members


def weyl_dim(l: int, lam: Eps) -> int:
    """Dimension of the highest-weight module, by the product formula
    over coordinate pairs; exact integer."""
    lam = _checked_dominant(l, lam)
    num = 1
    den = 1
    for i in range(l + 1):
        for j in range(i + 1, l + 1):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("Weyl dimension division must be exact")
    return dim


def decompose(f: CharElement) -> dict[Eps, int]:
    """Coefficients d_mu with f = sum d_mu ch_mu, the nonzero ones only,
    by ring.expand over every dominant weight below a term of f in
    decreasing processing order.  Height strictly increases up the
    dominance order, so every character's lower terms come after its
    highest weight."""
    weights: set[Eps] = set()
    for mu in sorted(f.terms, key=processing_key, reverse=True):
        if mu not in weights:  # else its saturated set is already in
            weights.update(saturated_dominants(mu))
    order = sorted(weights, key=processing_key, reverse=True)
    row = expand(f.terms, order, lambda mu: freudenthal_character(f.rank, mu).terms)
    return {mu: d for mu, d in row.items() if d}


@functools.cache
def inverse_kostka(mu: Eps) -> dict[Eps, int]:
    """K^-1(mu): h(mu) in the character basis, decompose(orbit_sum(mu)),
    the nonzero coefficients only.  Every caller is handed the same dict,
    which none may change."""
    return decompose(orbit_sum(mu))


@functools.cache
def _field_masks(n: int, w: int) -> tuple:
    """The per-(n, w) constants of tensor_decompose: ones (1 in each
    field), high (B = 2^(w-1) in each), wall (B - 1 in each), low (all
    bits of the n - 1 adjacent fields), low_wall (B - 1 in each of those),
    the adjacent coefficients a_i, with sum y_i a_i equal to
    sum_k (y_k - y_(k+1)) 2^(w k) over k < n - 1, and the pair
    coefficients c_i, with sum x_i c_i equal to sum_k (x_j - x_i) 2^(w k),
    the k-th pair i < j taken with the n - 1 adjacent pairs (i, i + 1)
    first, then the rest by increasing j - i.  A difference may be
    negative, so that sum alone is no packing into fields; the biased
    C - D_x that tensor_decompose reads is."""
    l = n - 1
    ones = sum(1 << (w * k) for k in range(n * l // 2))
    high = ones << (w - 1)
    low = (1 << (w * l)) - 1
    adjacent = [0] * n
    for k in range(l):
        adjacent[k] += 1 << (w * k)
        adjacent[k + 1] -= 1 << (w * k)
    coeffs = [0] * n
    pairs = sorted(combinations(range(n), 2), key=lambda p: p[1] - p[0])
    for k, (i, j) in enumerate(pairs):
        coeffs[i] -= 1 << (w * k)
        coeffs[j] += 1 << (w * k)
    return ones, high, high - ones, low, (high - ones) & low, tuple(adjacent), tuple(coeffs)


@functools.cache
def _constituent(n: int, w: int, key: int) -> Eps:
    """The canonical weight whose fundamental coordinates, each plus
    B = 2^(w-1), are the n - 1 low w-bit fields of key."""
    mask = (1 << w) - 1
    bias = 1 << (w - 1)
    eps = [0] * n
    for k in range(n - 2, -1, -1):
        eps[k] = eps[k + 1] + (key >> (w * k) & mask) - bias
    return tuple(eps)


def _field_width(spread: int) -> int:
    """The smallest multiple of 16 with 2^(w-1) > spread + 1.  When spread
    bounds every |y_i - y_j| of a Brauer-Klimyk walk, each field
    B - 1 + y_i - y_j, B = 2^(w-1), lies in [0, 2^w)."""
    return 16 * ((spread + 1).bit_length() // 16 + 1)


@functools.cache
def _orbit_fields(d: Eps, w: int) -> tuple[tuple[Eps, ...], tuple[int, ...]]:
    """The orbit of d as a tuple, and beside each point x its packed pair
    differences D_x = sum x_i c_i (see _field_masks)."""
    points = tuple(orbit(d))
    coeffs = _field_masks(len(d), w)[-1]
    return points, tuple([sum(map(operator.mul, x, coeffs)) for x in points])


def tensor_decompose(
    l: int, mu: Eps, nu: Eps, cache_dir: str | None = None
) -> dict[Eps, int]:
    """Littlewood-Richardson multiplicities: how the product of the
    characters of mu and nu splits into characters, the nonzero ones only.

    By the Brauer-Klimyk formula, ch_a * ch_b is the sum over the weights
    x of ch_a, with multiplicity, of sign(sigma) ch_{sigma(y) - rho}, where
    y = x + b + rho, sigma sorts y into decreasing order, and x is dropped
    when two coordinates of y are equal.  The weights are walked for the
    factor with fewer of them (lattice.weight_count), orbit by orbit; no
    product is formed and no constituent's character is read.

    Each pair i < j owns a w-bit field of one integer F = C - D_x, which
    holds y_i - y_j + B - 1, B = 2^(w-1); the l adjacent pairs (i, i + 1)
    own the low fields.  C packs s_i - s_j + B - 1 for s = b + rho, once
    per call, and D_x packs x_j - x_i, memoized per orbit.  The weights
    of ch_a have coordinates in [0, a_0], so (s_0 - s_{n-1}) + a_0 bounds
    every |y_i - y_j|; with w from _field_width over it, every field lies
    in [0, 2B - 2), and none borrows from the next.  One mask, clear, has
    B in each field whose top bit is clear, y_i <= y_j.  When clear is 0,
    y is strictly decreasing and the low fields of F are the fundamental
    coordinates of sigma(y) - rho, each plus B: that is the row's key,
    with no sort.  When F + ones (which carries out of no field) has a
    top bit set within clear, some field equals B - 1 and y lies on a
    wall.  Otherwise y is sorted, its adjacent differences are packed
    into a key the same way, and the parity of clear's bits is the sign.
    Each key is decoded to its weight once (memoized per (n, w, key)),
    in first-occurrence order."""
    chars = [freudenthal_character(l, lam, cache_dir) for lam in (mu, nu)]
    tops = [next(iter(ch.terms)) for ch in chars]  # canonical
    k = weight_count(tops[0]) > weight_count(tops[1])  # the walked factor
    walked, lam, top = chars[k], tops[k], tops[1 - k]
    n = l + 1
    shift = [a + r for a, r in zip(top, rho(l))]  # s, strictly decreasing
    w = _field_width(shift[0] + lam[0])  # shift[-1] is 0
    ones, high, wall, low, low_wall, adjacent, pair_coeffs = _field_masks(n, w)
    base = wall - sum(map(operator.mul, shift, pair_coeffs))
    out: dict[int, int] = {}
    for d, m in walked.terms.items():
        for x, packed in zip(*_orbit_fields(d, w)):
            f = base - packed
            clear = high ^ (f & high)  # B in each field where y_i <= y_j
            if not clear:  # y strictly decreasing: no sort, no sign
                key = f & low
                out[key] = out.get(key, 0) + m
            elif not (f + ones) & clear:  # no field at B - 1: off the walls
                y = sorted(map(operator.add, x, shift), reverse=True)
                key = low_wall + sum(map(operator.mul, y, adjacent))
                out[key] = out.get(key, 0) + (-m if clear.bit_count() & 1 else m)
    return {_constituent(n, w, key): c for key, c in out.items() if c}
