"""Sparse exact arithmetic in the Weyl-invariant subring of the group ring.

Elements live in the orbit-sum basis h(mu), mu dominant, which makes
Weyl invariance structural: a non-invariant element simply cannot be
represented.  Products are orbit-reduced: by Weyl invariance the
coefficient of h(z) in h(mu) * h(nu) is |W mu| * N_z / |W z|, where N_z
counts the y in the orbit of nu with mu + y in the orbit of z.  So only
one orbit is walked per term pair (the smaller one, against the other
key's dominant point), and the division is checked to be exact.
"""

import operator

from .lattice import (
    Eps,
    is_dominant,
    orbit,
    orbit_size,
    processing_key,
    zero_weight,
)


class CharElement:
    """A Weyl-invariant element, stored as {dominant weight: coefficient}.

    Immutable by convention; every operation returns a fresh element.
    Zero coefficients are never stored.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict):
        clean: dict[Eps, int] = {}
        for mu, c in terms.items():
            if not c:
                continue
            if len(mu) != rank + 1:
                raise ValueError(f"weight {mu} has wrong length for A_{rank}")
            if min(mu) != 0 or not is_dominant(mu):
                raise ValueError(f"{mu} is not a canonical dominant weight")
            clean[mu] = c
        self.rank = rank
        self.terms = clean

    @classmethod
    def _canonical(cls, rank: int, terms: dict) -> "CharElement":
        """An element from terms whose keys are already canonical dominant
        weights of rank: only the zero coefficients are dropped.  Every
        arithmetic operation builds its result here, since its keys come
        from its operands or, for a product, are sorted and shifted."""
        self = object.__new__(cls)
        self.rank = rank
        self.terms = {mu: c for mu, c in terms.items() if c}
        return self

    def coefficient(self, mu: Eps) -> int:
        """Coefficient of h(mu)."""
        return self.terms.get(mu, 0)

    def _require_same_rank(self, other: "CharElement") -> None:
        if self.rank != other.rank:
            raise ValueError("rank mismatch")

    def __add__(self, other):
        if not isinstance(other, CharElement):
            return NotImplemented
        self._require_same_rank(other)
        out = dict(self.terms)
        for mu, c in other.terms.items():
            out[mu] = out.get(mu, 0) + c
        return CharElement._canonical(self.rank, out)

    def __sub__(self, other):
        if not isinstance(other, CharElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return CharElement._canonical(self.rank, {mu: -c for mu, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return CharElement._canonical(
                self.rank, {mu: c * other for mu, c in self.terms.items()}
            )
        if not isinstance(other, CharElement):
            return NotImplemented
        self._require_same_rank(other)
        out: dict[Eps, int] = {}
        for mu, a in self.terms.items():
            for nu, b in other.terms.items():
                # fix the key with the larger orbit, walk the other one
                fixed, walked = (mu, nu) if orbit_size(mu) >= orbit_size(nu) else (nu, mu)
                hits: dict[Eps, int] = {}
                for y in orbit(walked):
                    z = tuple(sorted(map(operator.add, fixed, y), reverse=True))
                    hits[z] = hits.get(z, 0) + 1
                ab = a * b
                for z, n in hits.items():
                    # every z has the same sum, so shift after counting; z
                    # decreases, so its minimum is its last coordinate
                    low = z[-1]
                    z = tuple([x - low for x in z])
                    c, rem = divmod(orbit_size(fixed) * n, orbit_size(z))
                    if rem:
                        raise ArithmeticError("orbit-reduced product must divide exactly")
                    out[z] = out.get(z, 0) + ab * c
        return CharElement._canonical(self.rank, out)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CharElement)
            and self.rank == other.rank
            and self.terms == other.terms
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"CharElement(rank={self.rank}, terms={self.terms!r})"


def sorted_terms(terms: dict) -> list[tuple[Eps, int]]:
    """The items of a {dominant weight: value} dict in decreasing
    processing order: the order every document lists its terms in."""
    return sorted(terms.items(), key=lambda kv: processing_key(kv[0]), reverse=True)


def expand(terms: dict, weights, basis) -> dict[Eps, int]:
    """Coefficients n^t of f = sum n^t basis(t) over the given weights
    (zeros included), f given by its terms and basis(t) returning the
    terms of the t-th basis element, both in one basis.

    Each basis(t) must be unitriangular with leading term t, and weights
    must list every term of every basis(t) after t and hold every t with
    n^t != 0.  Computed top-down: the coefficient of f at t minus the
    already-known contributions of everything above t."""
    row: dict[Eps, int] = {}
    # (n^s, basis(s)) for n^s != 0; a basis(s) that is only its leading
    # term reaches no later weight and is left out
    above: list[tuple[int, dict]] = []
    for t in weights:
        val = terms.get(t, 0)
        for ns, below in above:
            val -= ns * below.get(t, 0)
        row[t] = val
        if val:
            b = basis(t)
            if len(b) > 1:
                above.append((val, b))
    return row


def orbit_sum(mu: Eps) -> CharElement:
    """h(mu): the sum of e(x) over the Weyl orbit of mu."""
    return CharElement(len(mu) - 1, {mu: 1})


def unit(l: int) -> CharElement:
    """The multiplicative identity e(0) = h(0)."""
    return orbit_sum(zero_weight(l))
