"""Tests of the benchmark itself: its references agree with the library on
small cases, every check reports a planted wrong answer, the operation
counts are right, and traced counts repeat.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import refs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from charrig import lattice, oracle, rigidity  # noqa: E402


def small_weights(l, bound):
    return lattice.dominant_weights_up_to(l, bound)


@pytest.mark.parametrize("l,bound", [(1, 12), (2, 20), (3, 20), (4, 24)])
def test_references_agree_with_library(l, bound):
    for lam in small_weights(l, bound):
        assert refs.character(lam) == oracle.freudenthal_character(l, lam).terms
        assert refs.dimension(lam) == oracle.weyl_dim(l, lam)
        assert refs.orbit_count(lam) == lattice.orbit_size(lam)
    nonzero = [w for w in small_weights(l, bound // 2) if any(w)]
    for a in nonzero:
        for b in nonzero:
            assert refs.littlewood_richardson(a, b) == oracle.tensor_decompose(l, a, b)


def test_reference_weights_agree_with_library():
    for l, bound in [(2, 30), (5, 40)]:
        assert sorted(refs.dominant_weights(l, bound)) == sorted(small_weights(l, bound))


def shifted(row: dict, key, by=1) -> dict:
    out = dict(row)
    out[key] = out.get(key, 0) + by
    return out


def test_tensor_check_reports_a_shifted_lr_coefficient():
    l, mu, nu = 2, (2, 1, 0), (1, 1, 0)
    row = oracle.tensor_decompose(l, mu, nu)
    assert workloads._tensor_problems(l, mu, nu, row) == []
    for key in row:
        for by in (1, -1):
            assert workloads._tensor_problems(l, mu, nu, shifted(row, key, by))
    assert refs.littlewood_richardson(mu, nu) != shifted(row, min(row))


def test_char_check_reports_a_shifted_multiplicity():
    lam = (4, 2, 0)
    ch = oracle.freudenthal_character(2, lam).terms
    rows = [(mu, m, refs.orbit_count(mu)) for mu, m in ch.items()]
    assert workloads.char_problems(2, lam, rows, refs.dimension(lam)) == []
    for k in range(len(rows)):
        mu, m, size = rows[k]
        bad = rows[:k] + [(mu, m + 1, size)] + rows[k + 1:]
        assert workloads.char_problems(2, lam, bad, refs.dimension(lam))


def test_rigidity_checks_report_a_perturbed_family_passed_off_as_true(tmp_path):
    prepared = workloads.setup_rigidity(3, str(tmp_path))
    assert prepared.setup_check() == []
    l, bound = workloads.RIGIDITY_FAMILIES[0]
    truth = rigidity.true_family(l, bound)
    lam, mu = rigidity.perturbation_sites(truth)[5]
    fake = rigidity.perturb_family(truth, lam, mu, 1)
    assert workloads._family_problems(fake, l, bound)
    # items are interleaved by rank: 0 is the true A2 family and 3 one of
    # its perturbations.  A report of the fake family must fail item 0.
    items = prepared.round(0)
    [(op, problem)] = items[0][1](rigidity.verify_family(fake))
    assert op == "verify-true" and problem
    [(op, problem)] = items[0][1](rigidity.verify_family(truth))
    assert problem is None
    # and a true family's report in a perturbed slot must fail that slot
    [(op, problem)] = items[3][1](rigidity.verify_family(truth))
    assert op == "verify-perturbed" and problem
    [(op, problem)] = items[3][1](items[3][0]())
    assert problem is None


@pytest.mark.parametrize("name", ["rigidity", "cli"])
def test_rounds_draw_fresh_inputs_from_the_seed(tmp_path, name):
    def outputs(workdir, k):
        prepared = workloads.SETUPS[name](3, str(workdir))
        return [str(run()).replace(str(workdir), "") for run, _ in prepared.round(k)]

    first = outputs(tmp_path / "a", 1)
    assert first == outputs(tmp_path / "b", 1)
    assert first != outputs(tmp_path / "c", 0)


def test_tensor_rounds_draw_fresh_pairs_of_the_same_costs():
    strata = workloads.tensor_strata()
    first = workloads.tensor_pairs(strata, workloads.round_rng("tensor", 3, 0))
    second = workloads.tensor_pairs(strata, workloads.round_rng("tensor", 3, 1))
    assert len(first) == len(second) == workloads.PAIRS_PER_RANK * len(workloads.TENSOR_RANKS)
    assert first != second
    assert first == workloads.tensor_pairs(strata, workloads.round_rng("tensor", 3, 0))
    assert [l for l, _, _ in first] == [l for l, _, _ in second]


def test_interleave_round_robins_over_groups():
    assert workloads.interleave([[1, 2, 3], [4], [5, 6]]) == [1, 4, 5, 2, 6, 3]


def test_cli_counts_one_tampered_read_per_pass(tmp_path):
    prepared = workloads.setup_cli(5, str(tmp_path / "w"))
    run_pass, check = prepared.round(0)[0]
    verdicts = check(run_pass())
    assert len(verdicts) == 7
    failed = [(op, problem) for op, problem in verdicts if problem]
    assert failed == [("char-tampered", workloads.KNOWN_FAULT)]


def tampered_output(edit):
    """The JSON the CLI prints for the tampered weight, with edit applied
    to its rows."""
    l, coords, site = workloads.TAMPERED
    lam = refs.from_coords(coords)
    rows = [
        {"mu": list(refs.coords(mu)), "multiplicity": m, "orbit_size": refs.orbit_count(mu)}
        for mu, m in refs.character(lam).items()
    ]
    edit(rows, site)
    return json.dumps({"rows": rows, "dimension": refs.dimension(lam)})


def test_tampered_check_excuses_only_the_known_fault():
    def bump(at):
        def edit(rows, site):
            for r in rows:
                if r["mu"] == (site if at is None else at):
                    r["multiplicity"] += 1

        return edit

    assert workloads.tampered_problems((0, tampered_output(lambda rows, site: None))) == []
    assert workloads.tampered_problems((0, tampered_output(bump(None)))) == [workloads.KNOWN_FAULT]
    leading = list(refs.coords(refs.from_coords(workloads.TAMPERED[1])))
    other = workloads.tampered_problems((0, tampered_output(bump(leading))))
    assert other and workloads.KNOWN_FAULT not in other
    assert workloads.tampered_problems((1, "")) == ["exit code 1"]


def test_run_counts_attempted_and_failed_operations(capsys):
    result = run.run_workload("cli", 2, 0, traced=False)
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    passes = workloads.CLI_PASSES * summary["rounds"]
    assert summary["items_per_round"] == workloads.CLI_PASSES
    assert result["correct"] is True
    assert result["attempted"] == 7 * passes
    assert result["failed"] == passes
    names = {m["name"] for m in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly(capsys):
    first = run.run_workload("cli", 4, 0, traced=True)["metrics"]
    second = run.run_workload("cli", 4, 0, traced=True)["metrics"]
    capsys.readouterr()
    counts = [k for k, v in first.items() if v["unit"] != "s"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["cli.main.calls"]["value"] == 1 + 7 * workloads.CLI_PASSES
    assert first["oracle.cache.files"]["value"] > 0
    declared = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["per_layer"]
    assert [(m["name"], m["unit"]) for m in declared] == list(tracing.PER_LAYER)
    assert set(first) == {name for name, _ in tracing.PER_LAYER}


def test_tracer_leaves_the_library_as_it_found_it():
    from charrig import ring

    before = (oracle.saturated_dominants, rigidity.saturated_dominants, ring.CharElement.__mul__)
    tracer = tracing.Tracer()
    tracer.install()
    assert oracle.saturated_dominants is not before[0]
    assert rigidity.saturated_dominants is lattice.saturated_dominants
    tracer.uninstall()
    assert (oracle.saturated_dominants, rigidity.saturated_dominants, ring.CharElement.__mul__) == before


def test_scaled_times_follow_the_probes_around_them():
    times = [0.01] * 30
    probes = [run.PROBE_REF_S] * 15 + [2 * run.PROBE_REF_S] * 15
    out = run.scaled(times, probes)
    assert out[0] == pytest.approx(0.01) and out[-1] == pytest.approx(0.005)
    assert run.probe() > 0


@pytest.mark.parametrize("n,p", [(40, 75), (42, 76), (50, 80), (100, 90), (200, 95)])
def test_tail_percentile_leaves_ten_items_above(n, p):
    assert run.tail_percentile(n) == p
    values = list(range(n))
    assert sum(v > run.percentile(values, p) for v in values) == 10


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
