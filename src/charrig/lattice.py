"""Exact combinatorics of the type A_l weight lattice.

A weight is stored as a canonical epsilon-vector: an integer tuple of
length l+1 shifted so its minimum entry is 0.  Two tuples are equal iff
they name the same weight modulo the all-ones vector.  The Weyl group
(the symmetric group on l+1 letters) acts by permuting coordinates, so a
weight is dominant iff its canonical vector is weakly decreasing, and
Weyl orbits are multiset permutations.

All arithmetic is plain integer arithmetic; there is no rational Cartan
matrix inversion anywhere.
"""

import bisect
import functools
import math
import operator
from collections import Counter

Eps = tuple[int, ...]


class NotInRootLattice(ValueError):
    """The difference of the given weights is not in the root lattice."""


def canonical(v) -> Eps:
    """Shift so the minimum coordinate is 0."""
    m = min(v)
    return tuple([x - m for x in v])


def zero_weight(l: int) -> Eps:
    return (0,) * (l + 1)


def fundamental_weight(l: int, i: int) -> Eps:
    """The i-th fundamental weight, 1 <= i <= l: i ones then zeros."""
    if not 1 <= i <= l:
        raise ValueError(f"fundamental index {i} out of range for A_{l}")
    return (1,) * i + (0,) * (l + 1 - i)


def from_fundamental(l: int, coords) -> Eps:
    """Weight with the given fundamental coordinates, in canonical form."""
    coords = tuple(coords)
    if len(coords) != l:
        raise ValueError(f"expected {l} fundamental coordinates, got {len(coords)}")
    eps = [0] * (l + 1)
    running = 0
    for j in range(l - 1, -1, -1):
        running += coords[j]
        eps[j] = running
    return canonical(tuple(eps))


@functools.cache
def fundamental_coords(eps: Eps) -> tuple[int, ...]:
    """Fundamental coordinates c_i = eps_i - eps_{i+1} (shift-invariant)."""
    return tuple(eps[i] - eps[i + 1] for i in range(len(eps) - 1))


def is_dominant(eps: Eps) -> bool:
    return all(eps[i] >= eps[i + 1] for i in range(len(eps) - 1))


def add(a: Eps, b: Eps) -> Eps:
    """Coset addition (well defined modulo the all-ones vector)."""
    if len(a) != len(b):
        raise ValueError("rank mismatch")
    s = tuple(map(operator.add, a, b))
    m = min(s)
    return tuple([x - m for x in s]) if m else s


@functools.cache
def orbit(d: Eps) -> frozenset[Eps]:
    """All distinct coordinate permutations (each still canonical), as a
    frozenset.  They are built once each, in lexicographic order from the
    ascending sort; that is only the build order, and the set's iteration
    order is unspecified."""
    p = sorted(d)
    out = [tuple(p)]
    while True:
        i = len(p) - 2  # the rightmost ascent p[i] < p[i + 1]
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return frozenset(out)
        p[i + 1 :] = p[:i:-1]  # the tail, ascending
        j = bisect.bisect_right(p, p[i], i + 1)
        p[i], p[j] = p[j], p[i]
        out.append(tuple(p))


@functools.cache
def orbit_size(d: Eps) -> int:
    n = math.factorial(len(d))
    for c in Counter(d).values():
        n //= math.factorial(c)
    return n


def aligned(a: Eps, b: Eps) -> tuple[Eps, Eps]:
    """Shift one representative by a multiple of the all-ones vector so
    both have the same coordinate sum.

    Raises NotInRootLattice when the sums are incongruent mod l+1,
    i.e. when a - b is not in the root lattice.
    """
    if len(a) != len(b):
        raise ValueError("rank mismatch")
    n = len(a)
    d = sum(b) - sum(a)
    if d % n:
        raise NotInRootLattice(f"coordinate sums differ by {d}, not a multiple of {n}")
    if d >= 0:
        a = tuple(x + d // n for x in a)
    else:
        b = tuple(x + (-d) // n for x in b)
    return a, b


def dominance_leq(mu: Eps, la: Eps) -> bool:
    """mu is below la in dominance order: la - mu is a nonnegative sum of
    simple roots.  On sum-aligned representatives this is the classical
    partial-sum condition."""
    try:
        la2, mu2 = aligned(la, mu)
    except NotInRootLattice:
        return False
    s = 0
    for x, y in zip(la2, mu2):
        s += x - y
        if s < 0:
            return False
    return s == 0


def root_coordinates(la: Eps, mu: Eps) -> tuple[int, ...]:
    """Coefficients k_i of la - mu = sum k_i alpha_i in the simple roots.

    Raises NotInRootLattice when the difference is not in the root lattice.
    """
    la2, mu2 = aligned(la, mu)
    out = []
    s = 0
    for i in range(len(la2) - 1):
        s += la2[i] - mu2[i]
        out.append(s)
    return tuple(out)


def support_size(beta) -> int:
    return sum(1 for k in beta if k)


@functools.cache
def saturated_dominants(la: Eps) -> tuple[Eps, ...]:
    """All dominant weights below la in dominance order, la first,
    sorted by decreasing height (ties broken lexicographically), as one
    tuple that every call shares, holding one object per distinct weight.

    la must be dominant and canonical.  A dominant weight below la,
    aligned to la's coordinate sum, is a partition of that sum into at
    most l+1 parts whose partial sums never exceed la's, so we enumerate
    exactly those partitions.
    """
    n = len(la)
    total = sum(la)
    la_partials = []
    s = 0
    for x in la:
        s += x
        la_partials.append(s)
    out: list[Eps] = []

    def rec(parts: list[int], acc: int) -> None:
        i = len(parts)
        if i == n:
            if acc == total:
                out.append(canonical(tuple(parts)))
            return
        hi = min(parts[-1] if parts else total, total - acc, la_partials[i] - acc)
        for p in range(hi, -1, -1):
            if p * (n - i) < total - acc:
                break  # parts are weakly decreasing; the sum is now unreachable
            rec(parts + [p], acc + p)

    rec([], 0)
    # each weight is taken from its processing_key, so equal weights of
    # different saturated sets, or of dominant_weights_up_to, are one object
    return tuple(key[1] for key in sorted(map(processing_key, out), reverse=True))


@functools.cache
def weight_count(la: Eps) -> int:
    """The number of distinct weights of the module with highest weight
    la, sum |Wd| over its saturated dominants d; la dominant, canonical."""
    return sum(map(orbit_size, saturated_dominants(la)))


@functools.cache
def dual_weight(d: Eps) -> Eps:
    """Highest weight of the dual module: -w0 acting on a dominant weight,
    i.e. fundamental coordinates reversed.  An involution."""
    return canonical(tuple(-x for x in reversed(d)))


def rho(l: int) -> Eps:
    """Half the sum of positive roots, as the epsilon-vector (l, l-1, ..., 0)."""
    return tuple(range(l, -1, -1))


@functools.cache
def height(eps: Eps) -> int:
    """Pairing of the canonical representative with twice the Weyl vector.

    Strictly decreases when a nonzero nonnegative root combination or a
    nonzero dominant weight is subtracted, so it linearizes the
    recursion order on dominant weights.  Shifting eps by m times the
    all-ones vector moves the pairing by m * l(l+1), so the closed form
    2 sum (l-i) eps_i - l(l+1) min(eps) needs no canonical copy.
    Memoized per weight.
    """
    l = len(eps) - 1
    return 2 * sum(map(operator.mul, eps, range(l, -1, -1))) - l * (l + 1) * min(eps)


@functools.cache
def processing_key(eps: Eps):
    """Total order used for deterministic iteration: height, then lex."""
    return (height(eps), eps)


@functools.cache
def dominant_weights_up_to(l: int, bound: int) -> tuple[Eps, ...]:
    """The dominant weights of height <= bound as one shared tuple, in
    increasing processing order, each saturated_dominants' object for it."""
    fw_heights = [height(fundamental_weight(l, i)) for i in range(1, l + 1)]
    out: list[Eps] = []

    def rec(i: int, coords: list[int], h: int) -> None:
        if i == l:
            out.append(from_fundamental(l, coords))
            return
        c = 0
        while h + c * fw_heights[i] <= bound:
            rec(i + 1, coords + [c], h + c * fw_heights[i])
            c += 1

    rec(0, [], 0)
    return tuple(key[1] for key in sorted(map(processing_key, out)))
