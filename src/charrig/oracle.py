"""Ground-truth character data for type A.

Weight multiplicities come from the Freudenthal recursion (exact integer
divisions throughout, checked), cross-checkable against the Weyl
dimension product formula.  Tensor product multiplicities are obtained
by peel-off decomposition in the character basis.

Characters are memoized per (rank, weight); an optional directory adds a
persistent JSON spill of the same tables, each file written atomically
(to a temporary name, then renamed).  A cache file that does not
parse, whose keys are not exactly the saturated dominants, or whose
leading coefficient is not 1 is discarded and recomputed; a changed
lower multiplicity is not detected.
"""

import contextlib
import json
import os

from .lattice import (
    Eps,
    canonical,
    dominant_representative,
    from_fundamental,
    fundamental_coords,
    is_dominant,
    pairing,
    positive_roots,
    processing_key,
    rho,
    saturated_dominants,
)
from .ring import CharElement, sorted_terms

_MEMO: dict[tuple[int, Eps], CharElement] = {}


def clear_memo() -> None:
    _MEMO.clear()


def _cache_path(cache_dir: str, l: int, lam: Eps) -> str:
    name = f"A{l}_" + "-".join(str(c) for c in fundamental_coords(lam)) + ".json"
    return os.path.join(cache_dir, name)


def _load_cached(cache_dir: str, l: int, lam: Eps) -> CharElement | None:
    path = _cache_path(cache_dir, l, lam)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        terms = {}
        for row in doc["terms"]:
            mu = from_fundamental(l, [int(c) for c in row["mu"]])
            terms[mu] = int(row["coeff"])
        elem = CharElement(l, terms)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    # sanity: a character table has exactly the saturated dominants as keys
    # with unit leading coefficient
    if set(elem.terms) != set(saturated_dominants(lam)) or elem.terms.get(lam) != 1:
        return None
    return elem


def _store_cached(cache_dir: str, l: int, lam: Eps, elem: CharElement) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    doc = {
        "rank": l,
        "lambda": list(fundamental_coords(lam)),
        "terms": [
            {"mu": list(fundamental_coords(mu)), "coeff": c}
            for mu, c in sorted_terms(elem.terms)
        ],
    }
    path = _cache_path(cache_dir, l, lam)
    tmp = f"{path}.{os.getpid()}.tmp"  # never matches a cache name
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError:
        # cache is an optimization only; leave no partial file behind
        with contextlib.suppress(OSError):
            os.remove(tmp)


def freudenthal_character(l: int, lam: Eps, cache_dir: str | None = None) -> CharElement:
    """The formal character of the highest-weight module with highest
    weight lam, as {mu: multiplicity} over the saturated dominants."""
    lam = canonical(lam)
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    key = (l, lam)
    if key in _MEMO:
        return _MEMO[key]
    if cache_dir:
        cached = _load_cached(cache_dir, l, lam)
        if cached is not None:
            _MEMO[key] = cached
            return cached

    doms = saturated_dominants(lam)  # decreasing height, lam first
    total_sum = sum(lam)
    n = l + 1
    rho_v = rho(l)
    pos = positive_roots(l)
    lam_rho = tuple(a + b for a, b in zip(lam, rho_v))
    top_norm = pairing(lam_rho, lam_rho)
    mults: dict[Eps, int] = {lam: 1}
    for mu in doms[1:]:
        shift = (total_sum - sum(mu)) // n
        mu_al = tuple(x + shift for x in mu)
        acc = 0
        for alpha in pos:
            k = 1
            while True:
                x = tuple(a + k * b for a, b in zip(mu_al, alpha))
                # x's dominant point lies above mu in dominance, so it comes
                # before mu in doms: it is in the weight set iff mults has it
                m = mults.get(dominant_representative(x))
                if m is None:
                    break  # the root string through mu leaves the weight set
                acc += m * pairing(x, alpha)
                k += 1
        mu_rho = tuple(a + b for a, b in zip(mu_al, rho_v))
        denom = top_norm - pairing(mu_rho, mu_rho)
        if denom <= 0:
            raise ArithmeticError("norm gap must be positive below the highest weight")
        m, rem = divmod(2 * acc, denom)
        if rem:
            raise ArithmeticError("Freudenthal division must be exact")
        mults[mu] = m
    elem = CharElement(l, mults)
    _MEMO[key] = elem
    if cache_dir:
        _store_cached(cache_dir, l, lam, elem)
    return elem


def weyl_dim(l: int, lam: Eps) -> int:
    """Dimension of the highest-weight module, by the product formula
    over coordinate pairs; exact integer."""
    if len(lam) != l + 1:
        raise ValueError(f"weight {lam} has wrong length for A_{l}")
    lam = canonical(lam)
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
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


def decompose(f: CharElement, cache_dir: str | None = None) -> dict[Eps, int]:
    """Coefficients d_mu with f = sum d_mu ch_mu, by repeatedly peeling
    the term of largest processing key.  Height strictly increases up
    the dominance order, so that term is maximal in dominance and its
    coefficient is d_mu.  The residue ends exactly zero because the
    characters are a basis of the invariant ring."""
    out: dict[Eps, int] = {}
    residue = f
    while residue:
        mu = max(residue.terms, key=processing_key)
        c = residue.terms[mu]
        out[mu] = c
        residue = residue - c * freudenthal_character(f.rank, mu, cache_dir)
    return out


def tensor_decompose(
    l: int, mu: Eps, nu: Eps, cache_dir: str | None = None
) -> dict[Eps, int]:
    """Littlewood-Richardson multiplicities: how the product of the
    characters of mu and nu splits into characters."""
    prod = freudenthal_character(l, mu, cache_dir) * freudenthal_character(
        l, nu, cache_dir
    )
    return decompose(prod, cache_dir)
