"""The recursion formula by ring products, for the tests only.

The library forms ring products only inside reconstruct_family.  These
helpers evaluate the same recursion on its own terms, and give it a
randomized split rule, so that acceptance criteria 7 and 8 can check it.
"""

import itertools
import random

from charrig.lattice import add, canonical, from_fundamental, fundamental_coords


def e_coefficient(f, x) -> int:
    """The coefficient of e(x) in the invariant element f: its
    h-coefficient at the dominant point of x's orbit."""
    return f.coefficient(canonical(sorted(x, reverse=True)))


def multiplicity_from_product(fam, mu, nu, t, row) -> int:
    """The coefficient of e(t) in the recursion formula for f_{mu+nu},
    f_mu * f_nu - sum row[s] f_s over s other than mu + nu, which never
    reads f_{mu+nu} itself.  row maps s to n^s_{mu nu} from any source:
    rigidity.extract_structure_constants, or an independent oracle such
    as tensor_decompose."""
    lam0 = add(mu, nu)
    f = fam.members[mu] * fam.members[nu]
    for s, ns in row.items():
        if ns and s != lam0:
            f = f - ns * fam.members[s]
    return e_coefficient(f, t)


def random_split(seed: int):
    """A deterministic randomized split rule: any mu with 0 < mu < lam
    componentwise in fundamental coordinates."""
    rng = random.Random(seed)

    def split(lam):
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
