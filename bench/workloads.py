"""The benchmark's three workloads.

Each ``setup_*(seed, workdir)`` does a workload's set-up work, from a
cold memo, and returns a ``Prepared``.  ``Prepared.round(k)`` makes the
k-th round's items: fresh inputs drawn from the seed and k, so no item
repeats an earlier one's input.  An item is a pair ``(run, check)``:
``run`` is the timed zero-argument call and ``check(output)`` returns
one ``(operation, problem)`` pair per operation, ``problem`` being None
when the output is right and ``KNOWN_FAULT`` when it shows the one
known fault.  The checks use ``refs`` and never a stored copy of
earlier output.
"""

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import refs
from charrig import cli, lattice, oracle, rigidity

DELTAS = (-3, -2, -1, 1, 2, 3)

# (rank, height bound): one verify_family takes 20-30 ms at each
RIGIDITY_FAMILIES = ((2, 24), (3, 30), (4, 36))
PERTURBATIONS_PER_FAMILY = 13

# (rank, height bound); both factors of a pair are large and their sum
# lies between 0.7 and 1.0 of the bound
TENSOR_RANKS = ((2, 90), (3, 70), (4, 70), (5, 70), (6, 70))
PAIRS_PER_RANK = 40
FACTOR_SHARE = 0.25
SUM_SHARE = 0.7
SWAP_SAMPLE = 10
LR_SAMPLE = 12

CLI_PASSES = 50
CLI_FAMILY = (2, 12)  # rank and bound of reconstruct/perturb/verify
CLI_SMALL = {2: 16, 3: 20}  # rank: height bound of char and tensor inputs
# A2 weight 2,2 (height 20, above every other rank-2 input) whose cache
# file set-up edits: the multiplicity of 3,0 goes from 1 to 2.  The cache
# loader checks only the key set and the leading coefficient, so every
# read of it returns the edited table.
TAMPERED = (2, (2, 2), [3, 0])
KNOWN_FAULT = "char of 2,2 returns the edited cache entry: multiplicity 2 at 3,0"


@dataclass
class Prepared:
    round: object  # k -> [(run, check)]
    setup_check: object  # () -> [problem]
    cache_dir: str | None = None


def round_rng(workload: str, seed: int, k: int) -> random.Random:
    """The generator of round k's inputs."""
    return random.Random(f"{workload} {seed} {k}")


def interleave(groups) -> list:
    """Round-robin over the groups, so that a slow moment of the machine
    falls on items of every group rather than on one group's run of
    items."""
    longest = max(len(g) for g in groups)
    return [g[k] for k in range(longest) for g in groups if k < len(g)]


def _family_problems(fam, l, bound) -> list:
    """Problems of a library family against the Kostka reference."""
    expected = refs.dominant_weights(l, bound)
    if set(fam.members) != set(expected):
        return [f"A{l}/{bound}: index set differs from the dominant weights in bound"]
    return [
        f"A{l}/{bound}: member {refs.coords(lam)} differs from its Kostka numbers"
        for lam in expected
        if fam.members[lam].terms != refs.character(lam)
    ]


def _one_site_problems(fam, truth, site, delta) -> list:
    lam, mu = site
    for w, f in fam.members.items():
        want = dict(truth.members[w].terms)
        if w == lam:
            want[mu] = want.get(mu, 0) + delta
            want = {k: v for k, v in want.items() if v}
        if f.terms != want:
            return [f"perturbed family differs from truth away from {site}"]
    return []


# --- rigidity ---------------------------------------------------------------


def setup_rigidity(seed: int, workdir: str) -> Prepared:
    """True families, their LR tables and the reconstruction from the
    tables.  A round verifies each true family and PERTURBATIONS_PER_FAMILY
    fresh seeded single-site perturbations of it."""
    oracle.clear_memo()
    built = []
    for l, bound in RIGIDITY_FAMILIES:
        truth = rigidity.true_family(l, bound)
        table = rigidity.lr_table(l, bound)
        rebuilt = rigidity.reconstruct_family(rigidity.table_oracle(table), l, bound)
        built.append((l, bound, truth, rebuilt, rigidity.perturbation_sites(truth)))

    def check_true(report):
        ok = report.passed and report.members_equal is True
        return [("verify-true", None if ok else "the true family fails a rigidity check")]

    def check_perturbed(truth, site, delta, fam):
        def check(report):
            problems = _one_site_problems(fam, truth, site, delta)
            if report.passed or report.members_equal is not False:
                problems.append(f"perturbation at {site} is not caught")
            return [("verify-perturbed", "; ".join(problems) or None)]

        return check

    def make_round(k):
        rng = round_rng("rigidity", seed, k)
        groups = []
        for l, bound, truth, rebuilt, sites in built:
            group = [(truth, check_true)]
            for lam, mu in rng.sample(sites, PERTURBATIONS_PER_FAMILY):
                delta = rng.choice(DELTAS)
                fam = rigidity.perturb_family(truth, lam, mu, delta)
                group.append((fam, check_perturbed(truth, (lam, mu), delta, fam)))
            groups.append(group)
        return [(lambda fam=fam: rigidity.verify_family(fam), check) for fam, check in interleave(groups)]

    def setup_check():
        problems = []
        for l, bound, truth, rebuilt, _ in built:
            problems += _family_problems(truth, l, bound)
            if rebuilt.members != truth.members:
                problems.append(f"A{l}/{bound}: reconstruction differs from the true family")
        return problems

    return Prepared(make_round, setup_check)


# --- tensor -----------------------------------------------------------------


def _weight_count(lam) -> int:
    return sum(lattice.orbit_size(mu) for mu in lattice.saturated_dominants(lam))


def tensor_strata() -> list:
    """Per rank, the eligible pairs sorted by the ring product's work,
    |Pi(mu)| * |Pi(nu)|, and cut into PAIRS_PER_RANK equal strata."""
    out = []
    for l, bound in TENSOR_RANKS:
        weights = [
            w
            for w in lattice.dominant_weights_up_to(l, bound)
            if lattice.height(w) >= FACTOR_SHARE * bound
        ]
        count = {w: _weight_count(w) for w in weights}
        eligible = sorted(
            (count[a] * count[b], a, b)
            for i, a in enumerate(weights)
            for b in weights[i:]
            if SUM_SHARE * bound <= lattice.height(lattice.add(a, b)) <= bound
        )
        # a rank with fewer eligible pairs than strata repeats some
        cuts = [int(k * len(eligible) / PAIRS_PER_RANK) for k in range(PAIRS_PER_RANK + 1)]
        out.append((l, [eligible[a:max(b, a + 1)] for a, b in zip(cuts, cuts[1:])]))
    return out


def tensor_pairs(strata, rng: random.Random) -> list:
    """One pair drawn from each stratum, the ranks interleaved, so every
    round gets the same spread of costs."""
    groups = [[(l, *rng.choice(stratum)[1:]) for stratum in strata_l] for l, strata_l in strata]
    return interleave(groups)


def _tensor_problems(l, mu, nu, row) -> list:
    problems = []
    if any(c <= 0 for c in row.values()):
        problems.append("a coefficient is not positive")
    if row.get(refs.add(mu, nu)) != 1:
        problems.append("mu+nu does not appear exactly once")
    total = sum(c * refs.dimension(lam) for lam, c in row.items())
    if total != refs.dimension(mu) * refs.dimension(nu):
        problems.append(f"dimensions sum to {total}, not dim(mu)*dim(nu)")
    return problems


def _small_pairs(rng: random.Random, bounds: dict, count: int) -> list:
    out = []
    for _ in range(count):
        l = rng.choice(sorted(bounds))
        weights = [w for w in refs.dominant_weights(l, bounds[l]) if any(w)]
        while True:
            a, b = rng.choice(weights), rng.choice(weights)
            if refs.height(refs.add(a, b)) <= bounds[l]:
                out.append((l, a, b))
                break
    return out


def setup_tensor(seed: int, workdir: str) -> Prepared:
    """A memo holding every character a pair can reach: each dominant
    weight up to the bound.  A round decomposes fresh seeded pairs."""
    oracle.clear_memo()
    for l, bound in TENSOR_RANKS:
        for w in sorted(lattice.dominant_weights_up_to(l, bound), key=lattice.processing_key):
            oracle.freudenthal_character(l, w)
    strata = tensor_strata()

    def check(pair):
        def check_row(row):
            return [("tensor", "; ".join(_tensor_problems(*pair, row)) or None)]

        return check_row

    def make_round(k):
        pairs = tensor_pairs(strata, round_rng("tensor", seed, k))
        return [(lambda p=p: oracle.tensor_decompose(*p), check(p)) for p in pairs]

    def setup_check():
        rng = random.Random(seed)
        problems = []
        for l, a, b in rng.sample(tensor_pairs(strata, rng), SWAP_SAMPLE):
            if oracle.tensor_decompose(l, a, b) != oracle.tensor_decompose(l, b, a):
                problems.append(f"A{l} {refs.coords(a)} x {refs.coords(b)} is not symmetric")
        for l, a, b in _small_pairs(rng, {2: 14, 3: 16, 4: 20}, LR_SAMPLE):
            if oracle.tensor_decompose(l, a, b) != refs.littlewood_richardson(a, b):
                problems.append(f"A{l} {refs.coords(a)} x {refs.coords(b)} differs from LR")
        return problems

    return Prepared(make_round, setup_check)


# --- cli --------------------------------------------------------------------


def _coords_arg(eps) -> str:
    return ",".join(str(c) for c in refs.coords(eps))


def run_cli(argv: list) -> tuple:
    """cli.main in-process on a cleared memo, as a fresh process sees it:
    (exit code, stdout)."""
    oracle.clear_memo()
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def char_problems(l, lam, rows, dimension) -> list:
    """rows: [(mu, multiplicity, orbit size)] as the CLI printed them."""
    problems = []
    truth = refs.character(lam)
    got = {mu: m for mu, m, _ in rows}
    if got != truth:
        wrong = sorted(refs.coords(mu) for mu in set(got) | set(truth) if got.get(mu) != truth.get(mu))
        problems.append(f"multiplicities differ from Kostka numbers at {wrong}")
    if any(size != refs.orbit_count(mu) for mu, _, size in rows):
        problems.append("an orbit size is wrong")
    total = sum(m * refs.orbit_count(mu) for mu, m, _ in rows)
    if total != refs.dimension(lam) or dimension != refs.dimension(lam):
        problems.append(f"sum m*|W mu| = {total}, dimension printed {dimension}, expected {refs.dimension(lam)}")
    return problems


def _char_json(l, lam, result) -> list:
    code, text = result
    if code != 0:
        return [f"exit code {code}"]
    doc = json.loads(text)
    rows = [(refs.from_coords(r["mu"]), r["multiplicity"], r["orbit_size"]) for r in doc["rows"]]
    return char_problems(l, lam, rows, doc["dimension"])


def _char_tsv(l, lam, result) -> list:
    code, text = result
    if code != 0:
        return [f"exit code {code}"]
    lines = text.splitlines()
    rows = []
    for line in lines[1:-1]:
        mu, m, size = line.split("\t")
        rows.append((refs.from_coords([int(c) for c in mu.split(",")]), int(m), int(size)))
    dimension = int(lines[-1].split("\t")[1])
    return char_problems(l, lam, rows, dimension)


def _tensor_cli(l, mu, nu, result) -> list:
    code, text = result
    if code != 0:
        return [f"exit code {code}"]
    doc = json.loads(text)
    row = {refs.from_coords(r["lambda"]): r["coeff"] for r in doc["rows"]}
    problems = _tensor_problems(l, mu, nu, row)
    if row != refs.littlewood_richardson(mu, nu):
        problems.append("decomposition differs from the LR rule")
    if any(r["dimension"] != refs.dimension(refs.from_coords(r["lambda"])) for r in doc["rows"]):
        problems.append("a printed dimension is wrong")
    return problems


def family_doc_terms(doc) -> dict:
    """{lam: {mu: coeff}} of a family document, read without charrig."""
    return {
        refs.from_coords(m["lambda"]): {refs.from_coords(t["mu"]): t["coeff"] for t in m["terms"]}
        for m in doc["members"]
    }


def setup_cli(seed: int, workdir: str) -> Prepared:
    """An empty cache filled cold through the library and the CLI's
    table command, then one cache file edited."""
    rng = random.Random(seed)
    oracle.clear_memo()
    os.makedirs(workdir)
    cache = os.path.join(workdir, "cache")
    table = os.path.join(workdir, "lr.json")
    family = os.path.join(workdir, "perturbed.json")
    fl, fbound = CLI_FAMILY

    small = {l: refs.dominant_weights(l, b) for l, b in CLI_SMALL.items()}

    def make_pass(rng):
        def small_weight():
            l = rng.choice(sorted(small))
            return l, rng.choice(small[l])

        return {
            "json": small_weight(),
            "tsv": small_weight(),
            "tensor": _small_pairs(rng, CLI_SMALL, 1)[0],
            "seed": rng.randrange(10**6),
        }

    code, _ = run_cli(
        ["table", "--rank", str(fl), "--bound", str(fbound), "--out", table, "--cache-dir", cache]
    )
    if code != 0:
        raise RuntimeError(f"charrig table exited {code} during set-up")
    rigidity.true_family(fl, fbound, cache)
    # every weight a char or tensor input can reach
    for l, weights in small.items():
        for w in weights:
            oracle.freudenthal_character(l, w, cache)
    tl, tcoords, tsite = TAMPERED
    tlam = refs.from_coords(tcoords)
    oracle.freudenthal_character(tl, tlam, cache)
    path = os.path.join(cache, f"A{tl}_" + "-".join(map(str, tcoords)) + ".json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for row in doc["terms"]:
        if row["mu"] == tsite:
            row["coeff"] += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")

    common = ["--cache-dir", cache]

    def one_pass(p):
        (jl, jw), (tl_, tw), (xl, xa, xb) = p["json"], p["tsv"], p["tensor"]
        return [
            run_cli(["char", "--rank", str(jl), "--weight", _coords_arg(jw), *common]),
            run_cli(["char", "--rank", str(tl_), "--weight", _coords_arg(tw), "--format", "tsv", *common]),
            run_cli(["tensor", "--rank", str(xl), "--mu", _coords_arg(xa), "--nu", _coords_arg(xb), *common]),
            run_cli(["reconstruct", "--rank", str(fl), "--bound", str(fbound), "--oracle", "file", "--table", table, *common]),
            run_cli(["perturb", "--rank", str(fl), "--bound", str(fbound), "--seed", str(p["seed"]), "--out", family, *common]),
            run_cli(["verify", "--family", family, *common]),
            run_cli(["char", "--rank", str(tl), "--weight", ",".join(map(str, tcoords)), *common]),
        ]

    truth = {}

    def check(p):
        def check_pass(results):
            if not truth:
                truth.update((lam, refs.character(lam)) for lam in refs.dominant_weights(fl, fbound))
            char_j, char_t, tensor, recon, perturb, verify, tampered = results
            out = [
                ("char-json", _char_json(*p["json"], char_j)),
                ("char-tsv", _char_tsv(*p["tsv"], char_t)),
                ("tensor", _tensor_cli(*p["tensor"], tensor)),
                ("reconstruct", _reconstruct_problems(recon, len(truth))),
                ("perturb", _perturb_problems(perturb, family, truth)),
                ("verify", _verify_problems(verify, fl)),
                ("char-tampered", tampered_problems(tampered)),
            ]
            return [(op, "; ".join(problems) or None) for op, problems in out]

        return check_pass

    def make_round(k):
        rng = round_rng("cli", seed, k)
        passes = [make_pass(rng) for _ in range(CLI_PASSES)]
        return [(lambda p=p: one_pass(p), check(p)) for p in passes]

    def setup_check():
        return []

    return Prepared(make_round, setup_check, cache_dir=cache)


def tampered_problems(result) -> list:
    """[KNOWN_FAULT] when the char query of the edited weight prints the
    edited table and is otherwise right; [] when it prints the Kostka
    numbers; any other outcome is a problem of its own."""
    code, text = result
    tl, tcoords, tsite = TAMPERED
    lam = refs.from_coords(tcoords)
    if code != 0:
        return [f"exit code {code}"]
    doc = json.loads(text)
    rows = [(refs.from_coords(r["mu"]), r["multiplicity"], r["orbit_size"]) for r in doc["rows"]]
    problems = char_problems(tl, lam, rows, doc["dimension"])
    if not problems:
        return []
    site = refs.from_coords(tsite)
    edited = [(mu, m - (mu == site), size) for mu, m, size in rows]
    if dict((mu, m) for mu, m, _ in rows).get(site) == 2 and not char_problems(tl, lam, edited, doc["dimension"]):
        return [KNOWN_FAULT]
    return problems


def _reconstruct_problems(result, members) -> list:
    code, text = result
    doc = json.loads(text) if code in (0, 1) else {}
    if code != 0 or doc.get("equal") is not True or doc.get("diff") != [] or doc.get("members") != members:
        return [f"reconstruct from the table file: exit {code}, not equal to the true family"]
    return []


def _perturb_problems(result, path, truth) -> list:
    code, text = result
    if code != 0:
        return [f"exit code {code}"]
    (applied,) = json.loads(text)["perturbations"]
    lam, mu = refs.from_coords(applied["lambda"]), refs.from_coords(applied["mu"])
    if applied["delta"] not in DELTAS or lam == mu:
        return [f"bad perturbation {applied}"]
    with open(path, encoding="utf-8") as fh:
        written = family_doc_terms(json.load(fh))
    want = {w: dict(t) for w, t in truth.items()}
    want[lam][mu] = want[lam].get(mu, 0) + applied["delta"]
    want[lam] = {k: v for k, v in want[lam].items() if v}
    if written != want:
        return ["the written family is not the true family with one entry shifted"]
    return []


def _verify_problems(result, l) -> list:
    code, text = result
    if code != 1:
        return [f"verify of a perturbed family exited {code}, not 1"]
    doc = json.loads(text)
    verdicts = (doc["support_condition"]["verdict"], doc["duality_condition"]["verdict"])
    if doc["members_equal"] is not False or "fail" not in verdicts:
        return ["a perturbed family passes verify"]
    for v in doc["support_condition"]["violations"]:
        lam, mu = refs.from_coords(v["lambda"]), refs.from_coords(v["mu"])
        if v["expected"] != refs.kostka(lam, mu):
            return ["a support violation quotes a wrong expected multiplicity"]
    return []


SETUPS = {"rigidity": setup_rigidity, "tensor": setup_tensor, "cli": setup_cli}
