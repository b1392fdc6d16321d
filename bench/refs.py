"""Reference values for type A_l, written apart from the charrig library.

A weight is handled here as a partition: a weakly decreasing tuple of
l+1 non-negative integers (charrig's canonical epsilon-vector of a
dominant weight is one).  Two weights whose sizes differ by a multiple
of l+1 are compared by adding whole columns to the smaller one.

* dimension: the hook-content formula, not Weyl's product over roots;
* weight multiplicities: Kostka numbers, by counting semistandard
  tableaux one horizontal strip at a time;
* tensor products: the Littlewood-Richardson rule, by filling skew
  shapes row by row under the lattice-word condition;
* orbit sizes: the multinomial coefficient of the coordinate counts.
"""

from collections import Counter
from functools import lru_cache
from math import factorial


def orbit_count(weight) -> int:
    """Number of distinct coordinate permutations of the weight."""
    n = factorial(len(weight))
    for c in Counter(weight).values():
        n //= factorial(c)
    return n


@lru_cache(maxsize=None)
def dimension(lam: tuple) -> int:
    """dim V(lam) for GL_n, n = len(lam), by the hook-content formula."""
    n = len(lam)
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for k in range(i + 1, n) if lam[k] > j)
            num *= n + j - i
            den *= arm + leg + 1
    if num % den:
        raise ArithmeticError(f"hook-content quotient for {lam} is not an integer")
    return num // den


def align(lam: tuple, mu: tuple):
    """mu shifted by whole columns to lam's size, or None when the sizes
    are incongruent modulo the number of rows."""
    n = len(lam)
    d = sum(lam) - sum(mu)
    if d % n:
        return None
    return tuple(x + d // n for x in mu)


@lru_cache(maxsize=None)
def _kostka(lam: tuple, content: tuple) -> int:
    if not content:
        return 1 if not any(lam) else 0
    strip = content[-1]
    rest = content[:-1]
    n = len(lam)
    total = 0

    # choose the shape left after removing a horizontal strip of `strip`
    # boxes: row i keeps between lam[i+1] and lam[i] boxes
    def rec(i, removed, kept):
        nonlocal total
        if i == n:
            if removed == strip:
                total += _kostka(tuple(kept), rest)
            return
        lo = lam[i + 1] if i + 1 < n else 0
        for keep in range(lam[i], lo - 1, -1):
            r = removed + lam[i] - keep
            if r > strip:
                break
            rec(i + 1, r, kept + [keep])

    rec(0, 0, [])
    return total


def kostka(lam: tuple, mu: tuple) -> int:
    """Multiplicity of the weight mu in V(lam): the number of
    semistandard tableaux of shape lam and content mu (aligned)."""
    mu = align(lam, mu)
    if mu is None or min(mu) < 0:
        return 0
    return _kostka(lam, tuple(sorted(mu, reverse=True)))


def dominant_partitions(lam: tuple) -> list:
    """All partitions with len(lam) parts, the last one 0 up to whole
    columns, that have a nonzero Kostka number against lam."""
    n = len(lam)
    size = sum(lam)
    out = []

    def rec(parts, left):
        if len(parts) == n:
            if left == 0:
                mu = tuple(parts)
                if kostka(lam, mu):
                    m = mu[-1]
                    out.append(tuple(x - m for x in mu))
            return
        hi = min(parts[-1] if parts else left, left)
        for p in range(hi, -1, -1):
            if p * (n - len(parts)) < left:
                break
            rec(parts + [p], left - p)

    rec([], size)
    return out


def character(lam: tuple) -> dict:
    """{dominant weight: multiplicity} of V(lam), from Kostka numbers."""
    return {mu: kostka(lam, mu) for mu in dominant_partitions(lam)}


def littlewood_richardson(mu: tuple, nu: tuple) -> dict:
    """{lam: c^lam_{mu nu}} for GL_n, n = len(mu), with every lam
    shifted so that its last part is 0.

    Fills lam/mu row by row with nu_k copies of the letter k: rows weakly
    increase, columns strictly increase, and the reverse reading word
    (right to left, top to bottom) is a lattice word.
    """
    n, m = len(mu), len(nu)
    out: Counter = Counter()

    def next_row(r, used, above):
        # used[k-1]: letters k placed in rows above r; above: the letter
        # in each column of row r-1, 0 for a box of mu
        if r == n:
            if list(used) == list(nu):
                out[tuple(x - lengths[-1] for x in lengths)] += 1
            return

        def fill(k, row, counts):
            if k > m:
                lengths.append(len(row))
                next_row(r + 1, [u + c for u, c in zip(used, counts)], row)
                lengths.pop()
                return
            room = nu[k - 1] - used[k - 1]
            if k > 1:
                # this row's k's are read before its (k-1)'s
                room = min(room, used[k - 2] - used[k - 1])
            for c in range(room + 1):
                if c:
                    j = len(row)
                    if r and (j >= len(above) or above[j] >= k):
                        break
                    row = row + [k]
                fill(k + 1, row, counts + [c])

        fill(1, [0] * mu[r], [])

    lengths: list[int] = []
    next_row(0, [0] * m, [])
    return dict(out)


def from_coords(coords) -> tuple:
    """The partition (last part 0) with the given fundamental coordinates."""
    eps = [0]
    for c in reversed(coords):
        eps.append(eps[-1] + c)
    return tuple(reversed(eps))


def coords(eps) -> tuple:
    """Fundamental coordinates eps_i - eps_{i+1}."""
    return tuple(eps[i] - eps[i + 1] for i in range(len(eps) - 1))


def height(eps) -> int:
    """2<eps, rho> for the representative whose last part is 0."""
    l = len(eps) - 1
    return 2 * sum((x - eps[-1]) * (l - j) for j, x in enumerate(eps))


def add(a, b) -> tuple:
    s = tuple(x + y for x, y in zip(a, b))
    return tuple(x - s[-1] for x in s)


def dominant_weights(l: int, bound: int) -> list:
    """Every dominant weight of A_l with height at most bound."""
    steps = [height(from_coords([int(j == i) for j in range(l)])) for i in range(l)]
    out = []

    def rec(i, cs, h):
        if i == l:
            out.append(from_coords(cs))
            return
        c = 0
        while h + c * steps[i] <= bound:
            rec(i + 1, cs + [c], h + c * steps[i])
            c += 1

    rec(0, [], 0)
    return out
