import argparse
import errno
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import charrig
from charrig import cli


def run(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "charrig", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestChar:
    def test_adjoint(self):
        res = run("char", "--rank", "2", "--weight", "1,1")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["dimension"] == 8
        assert doc["rows"] == [
            {"mu": [1, 1], "multiplicity": 1, "orbit_size": 6},
            {"mu": [0, 0], "multiplicity": 2, "orbit_size": 1},
        ]

    def test_trivial(self):
        res = run("char", "--rank", "2", "--weight", "0,0")
        doc = json.loads(res.stdout)
        assert doc["dimension"] == 1
        assert len(doc["rows"]) == 1

    def test_invalid_weight(self):
        res = run("char", "--rank", "2", "--weight", "1,-1")
        assert res.returncode == 2
        assert res.stderr

    def test_malformed_weight(self):
        assert run("char", "--rank", "2", "--weight", "1,x").returncode == 2
        assert run("char", "--rank", "2", "--weight", "1,1,1").returncode == 2

    def test_tsv(self):
        res = run("char", "--rank", "2", "--weight", "1,1", "--format", "tsv")
        lines = res.stdout.splitlines()
        assert lines[0] == "mu\tmultiplicity\torbit_size"
        assert lines[-1].startswith("dimension\t8")


class TestTensor:
    def test_vector_covector(self):
        res = run("tensor", "--rank", "2", "--mu", "1,0", "--nu", "0,1")
        doc = json.loads(res.stdout)
        assert doc["rows"] == [
            {"lambda": [1, 1], "coeff": 1, "dimension": 8},
            {"lambda": [0, 0], "coeff": 1, "dimension": 1},
        ]
        assert doc["dimension_sum"] == doc["dimension_product"] == 9

    def test_trivial_factor(self):
        res = run("tensor", "--rank", "2", "--mu", "1,0", "--nu", "0,0")
        doc = json.loads(res.stdout)
        assert doc["rows"] == [{"lambda": [1, 0], "coeff": 1, "dimension": 3}]

    def test_a3(self):
        res = run("tensor", "--rank", "3", "--mu", "1,0,0", "--nu", "0,0,1")
        doc = json.loads(res.stdout)
        assert {tuple(r["lambda"]): r["coeff"] for r in doc["rows"]} == {
            (1, 0, 1): 1,
            (0, 0, 0): 1,
        }


class TestReconstruct:
    def test_lr_oracle_empty_diff(self, tmp_path):
        out = tmp_path / "fam.json"
        res = run(
            "reconstruct", "--rank", "2", "--bound", "12", "--oracle", "lr",
            "--out", str(out),
        )
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["equal"] is True and doc["diff"] == []
        assert out.exists()

    def test_bound_zero(self):
        res = run("reconstruct", "--rank", "2", "--bound", "0", "--oracle", "lr")
        assert res.returncode == 0
        assert json.loads(res.stdout)["members"] == 1

    def test_corrupted_table_nonempty_diff(self, tmp_path):
        table = tmp_path / "tab.json"
        run("table", "--rank", "2", "--bound", "10", "--out", str(table))
        doc = json.loads(table.read_text())
        entry = next(
            e for e in doc["entries"]
            if e["mu"] == [1, 0] and e["nu"] == [0, 1] and e["lambda"] == [0, 0]
        )
        entry["value"] += 1
        twin = next(
            e for e in doc["entries"]
            if e["mu"] == [0, 1] and e["nu"] == [1, 0] and e["lambda"] == [0, 0]
        )
        twin["value"] += 1
        table.write_text(json.dumps(doc))
        res = run(
            "reconstruct", "--rank", "2", "--bound", "10",
            "--oracle", "file", "--table", str(table),
        )
        assert res.returncode == 1
        assert json.loads(res.stdout)["diff"]

    def test_family_file_as_table_exit_2(self, tmp_path):
        fam = tmp_path / "fam.json"
        run("reconstruct", "--rank", "2", "--bound", "6", "--out", str(fam))
        res = run(
            "reconstruct", "--rank", "2", "--bound", "6",
            "--oracle", "file", "--table", str(fam),
        )
        assert res.returncode == 2
        assert res.stderr.startswith("charrig: malformed table file:")
        assert len(res.stderr.splitlines()) == 1
        assert res.stdout == ""

    def test_table_without_file_oracle_exit_2(self, tmp_path):
        res = run(
            "reconstruct", "--rank", "2", "--bound", "6",
            "--table", str(tmp_path / "absent.json"),
        )
        assert res.returncode == 2
        assert res.stderr == "charrig: --table requires --oracle file\n"
        assert res.stdout == ""

    def test_incomplete_table_exit_3(self, tmp_path):
        table = tmp_path / "tab.json"
        run("table", "--rank", "2", "--bound", "6", "--out", str(table))
        res = run(
            "reconstruct", "--rank", "2", "--bound", "10",
            "--oracle", "file", "--table", str(table),
        )
        assert res.returncode == 3
        assert "missing" in res.stderr


class TestVerify:
    def test_true_family_passes(self, tmp_path):
        fam = tmp_path / "fam.json"
        run("reconstruct", "--rank", "2", "--bound", "10", "--out", str(fam))
        res = run("verify", "--family", str(fam))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["support_condition"]["verdict"] == "pass"
        assert doc["duality_condition"]["verdict"] == "pass"
        assert doc["members_equal"] is True

    def test_perturbed_family_fails(self, tmp_path):
        fam = tmp_path / "pert.json"
        run(
            "perturb", "--rank", "2", "--bound", "10",
            "--site", "1,1:0,0", "--delta", "1", "--out", str(fam),
        )
        res = run("verify", "--family", str(fam))
        assert res.returncode == 1
        doc = json.loads(res.stdout)
        assert doc["duality_condition"]["verdict"] == "fail"
        assert doc["members_equal"] is False

    def test_invariant_violation_on_load(self, tmp_path):
        fam = tmp_path / "fam.json"
        run("reconstruct", "--rank", "2", "--bound", "10", "--out", str(fam))
        doc = json.loads(fam.read_text())
        doc["members"][1]["terms"].append({"mu": [3, 0], "coeff": 1})
        fam.write_text(json.dumps(doc))
        assert run("verify", "--family", str(fam)).returncode == 2

    def test_rank_mismatch(self, tmp_path):
        fam = tmp_path / "fam.json"
        run("reconstruct", "--rank", "2", "--bound", "10", "--out", str(fam))
        assert run("verify", "--family", str(fam), "--rank", "3").returncode == 2


class TestPerturb:
    def test_zero_delta_rejected(self, tmp_path):
        res = run(
            "perturb", "--rank", "2", "--bound", "10",
            "--site", "1,1:0,0", "--delta", "0", "--out", str(tmp_path / "f.json"),
        )
        assert res.returncode == 2

    def test_invalid_site(self, tmp_path):
        res = run(
            "perturb", "--rank", "2", "--bound", "10",
            "--site", "1,1:1,1", "--delta", "1", "--out", str(tmp_path / "f.json"),
        )
        assert res.returncode == 2

    def test_seeded_batch_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            res = run(
                "perturb", "--rank", "2", "--bound", "10",
                "--seed", "7", "--count", "2", "--out", str(path),
            )
            assert res.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_rejected(self, tmp_path, count):
        out = tmp_path / "f.json"
        res = run(
            "perturb", "--rank", "2", "--bound", "12",
            "--seed", "1", "--count", count, "--out", str(out),
        )
        assert res.returncode == 2
        assert "count" in res.stderr
        assert "Traceback" not in res.stderr
        assert not out.exists()


class TestDeterminismAndCache:
    def test_reconstruct_byte_identical_cold_and_warm(self, tmp_path):
        cache = tmp_path / "cache"
        args = (
            "reconstruct", "--rank", "2", "--bound", "12",
            "--oracle", "lr", "--cache-dir", str(cache),
        )
        cold = run(*args)
        warm = run(*args)
        plain = run(*args[:-2])
        assert cold.returncode == warm.returncode == plain.returncode == 0
        assert cold.stdout == warm.stdout == plain.stdout

    def test_env_var_cache(self, tmp_path):
        import os

        env = dict(os.environ, CHARRIG_CACHE=str(tmp_path / "envcache"))
        res = run("char", "--rank", "2", "--weight", "2,1", env=env)
        assert res.returncode == 0
        assert (tmp_path / "envcache").exists()

    def test_unusable_cache_dir_is_skipped(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        plain = run("char", "--rank", "2", "--weight", "2,1")
        for cache in (blocker, blocker / "sub"):
            res = run("char", "--rank", "2", "--weight", "2,1", "--cache-dir", str(cache))
            assert res.returncode == 0
            assert res.stdout == plain.stdout
            assert res.stderr == ""
        assert blocker.read_text() == "not a directory"

    def test_table_caches_only_the_factors(self, tmp_path):
        from charrig.lattice import add, dominant_weights_up_to, fundamental_coords, height

        cache = tmp_path / "cache"
        res = run("table", "--rank", "2", "--bound", "12", "--cache-dir", str(cache))
        assert res.returncode == 0
        weights = [a for a in dominant_weights_up_to(2, 12) if any(a)]
        factors = {a for a in weights for b in weights if height(add(a, b)) <= 12}
        names = {"A2_" + "-".join(map(str, fundamental_coords(a))) + ".json" for a in factors}
        assert {p.name for p in cache.iterdir()} == names


def stdout_sha256(*args):
    res = subprocess.run([sys.executable, "-m", "charrig", *args], capture_output=True)
    return res.returncode, hashlib.sha256(res.stdout).hexdigest()


# SHA-256 of the standard output, recorded at the seed commit (the two
# table entries at commit 3d0c484 and the rank 5 and 8 characters at
# 2430c46, where they were first pinned): every change since has kept
# these outputs byte-identical.
OUTPUT_SHA256 = {
    "char --rank 2 --weight 2,2":
        "834097578c25b00cb68cc71e94f35847c64c932ea52119f96d1d4fc978dbf00e",
    "char --rank 2 --weight 2,2 --format tsv":
        "0f06505937135ac20cbe8328bf66b5b1ab82ede6b8aa9d8f2b0782b3068bbd83",
    "char --rank 3 --weight 1,1,1":
        "f0c0193a6264df4398227340033b4befeb6ce796a7d510cc024fcbf8ba7343de",
    "char --rank 3 --weight 1,1,1 --format tsv":
        "aa4ea1ddea680c95078f2d6d890451b778844eb1a6b67bac74c290597a8c8adf",
    "char --rank 5 --weight 2,0,1,0,1":
        "41087219697fb7a6398b733e90ca2f7c41d9698e8abc80651cc0c94db0aed4eb",
    "char --rank 8 --weight 1,0,0,1,0,0,0,1":
        "48ec80b2bceaedd7f7673341a2a77355d5d9fbed65e27eb216314e78e5ba8121",
    "tensor --rank 2 --mu 2,1 --nu 1,2":
        "53ea76d628ebf4547f15037c88f6db41ac651b52238ccf33f3e4d2492b09abdc",
    "tensor --rank 3 --mu 1,0,1 --nu 0,1,1":
        "fe834cd4a1225bf2770f46ab34d5411f3ee5b2477c35c1d7342506dbb20cbef7",
    # recorded at commit 29f1ddc, which formed the product and decomposed it
    "tensor --rank 2 --mu 15,15 --nu 14,16":
        "3d944f071d7fb25039332b31a0b0e53a406cf921a24206a0aac21c18e3be2540",
    "tensor --rank 4 --mu 3,2,2,3 --nu 2,3,3,2":
        "c89c03e4218c584358add00bab1c2cfb8e1613e8fd0be43e51abd331d264a6b4",
    # recorded at commit bc5fbb6
    "tensor --rank 2 --mu 2,1 --nu 1,2 --format tsv":
        "14be373fc522c4d4d19f54c1fad519bc45702b236141fe6d559f909877586d49",
    "tensor --rank 3 --mu 1,0,1 --nu 0,1,1 --format tsv":
        "c7bddfbd3635a735eb539a59d9cf1c6432e195d47f6ceaf3b491a5efb3b5e804",
    "table --rank 2 --bound 12":
        "8e7e4ecbab7f35202c8e2963e25404f203c523358af1cb8cd8e872abca123ab9",
    "table --rank 3 --bound 12":
        "ae96561dc4e881790a270b5b5cafa98fd42699e4750a75007effd17b827ffe62",
}

# verify on the family that perturb --site SITE --delta 1 writes at A2/12
VERIFY_SHA256 = {
    "1,1:0,0": "24c7d093c8694623e2dc4c7f98901da06cf8db9fc28bfe7dfb34e52382405a50",
    "2,0:0,1": "6a0382a9f1f8fa7bcdf97c62aba24de8b2651cb2e99e1ded3463e9f5e92897d2",
    "3,0:1,1": "0efa53eeb1b0a783a3a0378c71f2a3ac3c943b7ebdcb1ec99bc4e81d30fdf604",
}


@pytest.mark.parametrize("command", list(OUTPUT_SHA256))
def test_output_bytes_unchanged(command):
    assert stdout_sha256(*command.split()) == (0, OUTPUT_SHA256[command])


@pytest.mark.parametrize("site", list(VERIFY_SHA256))
def test_verify_output_bytes_unchanged(tmp_path, site):
    fam = tmp_path / "fam.json"
    res = run(
        "perturb", "--rank", "2", "--bound", "12",
        "--site", site, "--delta", "1", "--out", str(fam),
    )
    assert res.returncode == 0
    assert stdout_sha256("verify", "--family", str(fam)) == (1, VERIFY_SHA256[site])


# reconstruct --rank 2 --bound 12 --out FILE: SHA-256 of standard output
# and of FILE, recorded at commit a0f9196
RECONSTRUCT_STDOUT_SHA256 = "9938d5cf1b06c026b8286d7ea94dcf6124b52e5d277f8cf8c2db1b4bded8044f"
RECONSTRUCT_FAMILY_SHA256 = "5c14bccc9ad2a20f4c6f9fa17088549f1a750485e73d59c89f593bc6533b010a"
RECONSTRUCT = ["reconstruct", "--rank", "2", "--bound", "12", "--out"]


def test_reconstruct_output_bytes_unchanged(tmp_path):
    fam = tmp_path / "fam.json"
    assert stdout_sha256(*RECONSTRUCT, str(fam)) == (0, RECONSTRUCT_STDOUT_SHA256)
    assert hashlib.sha256(fam.read_bytes()).hexdigest() == RECONSTRUCT_FAMILY_SHA256


def test_reconstruct_diff_bytes_unchanged(tmp_path):
    # the A2/12 table with both n^{0,0} entries of (1,0) x (0,1) raised by
    # 1; stdout recorded at commit a0f9196
    table = tmp_path / "tab.json"
    run("table", "--rank", "2", "--bound", "12", "--out", str(table))
    doc = json.loads(table.read_text())
    for e in doc["entries"]:
        if sorted([e["mu"], e["nu"]]) == [[0, 1], [1, 0]] and e["lambda"] == [0, 0]:
            e["value"] += 1
    table.write_text(json.dumps(doc))
    assert stdout_sha256(
        "reconstruct", "--rank", "2", "--bound", "12", "--oracle", "file", "--table", str(table)
    ) == (1, "78e43972f24032e4a8464ee3a08e21cd05711c4f35a74caff9cf831a9f54fec2")


# perturb at A2/12, run in an empty directory with a relative --out that
# the JSON on standard output echoes: SHA-256 of standard output and of the
# written family, recorded at commit 5122efd.  The last --out holds a
# non-ASCII character and double quotes, so the escaped string is pinned.
PERTURB_SHA256 = {
    "--site 2,0:0,1 --delta -2 --out fam.json": (
        "d801b0940359b20a55b314d6c6add6fffc424afb03981a92129528e90d93322e",
        "32c08a6d245e5459a67aef54966440742c1f9460bddd604efb89ecee8ac726b1",
    ),
    "--seed 7 --count 2 --out fam.json": (
        "da122c6b2abb76459ef7ce70c730b02ad6a1759e9e4d729409bd88fc48fa896f",
        "a641917638fb2c551ee72e4b7fc3afdeff890ac20ff7f5ca5ec57ab4d5d19b08",
    ),
    '--seed 3 --out "f\u00fc".json': (
        "1c645dd6db6a27dca20ae80a2c6360e7e71ffb55b136131ce3201573dedd790c",
        "67d8d62b10f100f04faa8a52918cc2f45df21867f8b5c6a94e2dcb74de394e21",
    ),
}


@pytest.mark.parametrize("options", list(PERTURB_SHA256))
def test_perturb_output_bytes_unchanged(tmp_path, options):
    args = options.split()
    src = os.path.dirname(os.path.dirname(os.path.abspath(charrig.__file__)))
    res = subprocess.run(
        [sys.executable, "-m", "charrig", "perturb", "--rank", "2", "--bound", "12", *args],
        capture_output=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert res.returncode == 0
    written = (tmp_path / args[-1]).read_bytes()
    assert (
        hashlib.sha256(res.stdout).hexdigest(),
        hashlib.sha256(written).hexdigest(),
    ) == PERTURB_SHA256[options]


@pytest.mark.parametrize("module", ["lattice", "ring", "oracle", "rigidity", "serialize", "cli"])
def test_module_imports_alone(module):
    res = subprocess.run([sys.executable, "-c", f"import charrig.{module}"])
    assert res.returncode == 0


@pytest.mark.parametrize(
    "argv,message",
    [
        ("table --rank 0 --bound 4", "rank must be >= 1, got 0"),
        ("reconstruct --rank 2 --bound -1", "bound must be >= 0, got -1"),
        ("verify --family missing.json --rank 0", "cannot read family missing.json"),
    ],
)
def test_range_errors_exit_2_with_one_message(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"charrig: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        # int() reads 1_0 as 10, +1 as 1 and an Arabic-Indic digit as its value
        "char --rank 2 --weight 1_0,0",
        "char --rank 2 --weight ١,0",
        "char --rank 2 --weight +1,0",
        "char --rank 2 --weight 1,,0",
        "char --rank 2 --weight 1,-",
        "tensor --rank 2 --mu 1,0 --nu 0,1_0",
        "tensor --rank 2 --mu ١,0 --nu 0,1",
        "perturb --rank 2 --bound 10 --site ٢,0:0,1 --delta 1 --out f.json",
        "perturb --rank 2 --bound 10 --site 2,0:0,1_0 --delta 1 --out f.json",
    ],
)
def test_malformed_weight_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("charrig: malformed weight") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_weight_coordinates_may_be_padded(capsys):
    # whitespace around a coordinate is read as before; a minus sign still
    # reaches the dominance check
    assert cli.main(["char", "--rank", "2", "--weight", "1,1"]) == 0
    expected = capsys.readouterr()
    assert cli.main(["char", "--rank", "2", "--weight", " 1 ,\t1\n"]) == 0
    assert capsys.readouterr() == expected
    assert cli.main(["char", "--rank", "2", "--weight", " -1,0"]) == 2
    assert "negative fundamental coordinate" in capsys.readouterr().err


NEGATIVE_WEIGHTS = [
    "char --rank 2 --weight -1,0",
    "tensor --rank 2 --mu -1,0 --nu 0,1",
    "tensor --rank 2 --mu 0,1 --nu -1,0",
    "perturb --rank 2 --bound 4 --site -1,0:0,0 --delta 1 --out f.json",
]


@pytest.mark.parametrize("argv", NEGATIVE_WEIGHTS)
def test_negative_first_coordinate_reaches_the_weight_check(tmp_path, monkeypatch, capsys, argv):
    # argparse alone takes -1,0 for an option string: it would exit 2 with
    # "expected one argument" before the weight is read
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("charrig: weight '-1,0' has a negative fundamental coordinate")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv,joined",
    [
        *zip(
            NEGATIVE_WEIGHTS,
            [
                "char --rank 2 --weight=-1,0",
                "tensor --rank 2 --mu=-1,0 --nu 0,1",
                "tensor --rank 2 --mu 0,1 --nu=-1,0",
                "perturb --rank 2 --bound 4 --site=-1,0:0,0 --delta 1 --out f.json",
            ],
        ),
        ("char --rank 2 --weight -1,0 --bogus", "char --rank 2 --weight=-1,0 --bogus"),
    ],
)
def test_negative_weight_parses_as_joined_to_its_option(capsys, argv, joined):
    outcome = parse_outcome(cli.parse_args, argv.split(), capsys)
    assert outcome == parse_outcome(parent_parse, joined.split(), capsys)


@pytest.mark.parametrize(
    "argv,what",
    [
        ("verify --family deep.json", "family"),
        ("reconstruct --rank 2 --bound 4 --oracle file --table deep.json", "table"),
    ],
)
def test_deeply_nested_input_exits_2(tmp_path, monkeypatch, capsys, argv, what):
    # json raises RecursionError, not ValueError, on such a file; exit 1
    # would claim a mathematical failure
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    assert cli.main(argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"charrig: cannot read {what} deep.json:")
    assert err.count("\n") == 1


def parent_parse(argv):
    """The parse cli.main made before it dispatched on the command word:
    the reference for cli.parse_args."""
    return cli._parsers()[0].parse_args(argv)


def parse_outcome(parse, argv, capsys):
    """(exit code or None, vars of the namespace or None, stdout, stderr)."""
    try:
        args, code = vars(parse(argv)), None
    except SystemExit as exc:
        args, code = None, exc.code
    return (code, args, *capsys.readouterr())


@pytest.mark.parametrize(
    "argv",
    [
        "",
        "-h",
        "--help",
        "char -h",
        "table -h",
        "char --rank 2",
        "char --rank x --weight 1,1",
        "char --rank 2 --weight 1,1 --format xml",
        "char --rank 2 --weight 1,1 --format tsv --format xml",
        "char --rank=2 --weight 1,1",
        "char --ra 2 --we 1,1",
        "char --rank 2 --weight 1,1 --bogus",
        "char --rank 2 --weight 1,1 extra",
        "char --rank 2 --weight 1,1 -- x",
        "cha --rank 2 --weight 1,1",
        "--rank 2 char --weight 1,1",
        # a value that looks like an option is joined to a weight option
        # of the command only, and never after --
        "char --rank 2 --mu -1,0",
        "char --rank 2 --weight 1,1 -- --weight -1,0",
        "char --rank 2 --weight -x,0",
        # on either side of the exact --option value pairs read from the
        # table: a repeated option keeps its last value
        "char --rank 2 --weight 1,1 --rank 3",
        "char --rank 2 --weight 1,1 --weight 2,0",
        "reconstruct --rank 2 --bound 4 --out ''",
        "reconstruct --rank 2 --bound 4 --out -",
        "char --rank '' --weight 1,1",
        # int() reads these on both paths
        "char --rank ' 2' --weight 1,1",
        "char --rank +2 --weight 1,1",
        "char --rank 1_0 --weight 1,1",
        "char --weight 1,1 --rank",
        "char --rank 2 --weight 1,1 --cache-dir -c",
        "char --rank 2 --weight 1,1 --cache-dir -1",
        "char --rank 2 --weight 1,1 --cache-dir --format",
        "table --rank -1 --bound 4",
        "char --rank 2 --weight 1,1 -h",
        "verify --family f.json --help",
        # every command with its required options only, then with all
        "char --rank 2 --weight 1,1",
        "tensor --rank 2 --mu 1,0 --nu 0,1",
        "reconstruct --rank 2 --bound 4",
        "verify --family f.json",
        "perturb --rank 2 --bound 4 --out f.json",
        "table --rank 2 --bound 4",
        "char --format tsv --cache-dir c --weight 1,1 --rank 2",
        "tensor --rank 2 --mu 1,0 --nu 0,1 --cache-dir c --format json",
        "reconstruct --rank 2 --bound 4 --oracle file --table t.json --out f.json --cache-dir c",
        "verify --family f.json --rank 2 --cache-dir c",
        "perturb --rank 2 --bound 4 --site 1,1:0,0 --delta 1 --seed 3 --count 2 --out f.json"
        " --cache-dir c",
        "table --rank 2 --bound 4 --out t.json --cache-dir c",
    ],
)
def test_parse_args_matches_full_parse(capsys, argv):
    argv = shlex.split(argv)
    assert parse_outcome(cli.parse_args, argv, capsys) == parse_outcome(parent_parse, argv, capsys)


COMMANDS = {
    # each command's required options, with values that pass their checks
    "char": ["--rank", "2", "--weight", "1,1"],
    "tensor": ["--rank", "2", "--mu", "1,0", "--nu", "0,1"],
    "reconstruct": ["--rank", "2", "--bound", "4"],
    "verify": ["--family", "f.json"],
    "perturb": ["--rank", "2", "--bound", "4", "--out", "f.json"],
    "table": ["--rank", "2", "--bound", "4"],
}
OPTIONS = [
    "--rank", "--weight", "--mu", "--nu", "--cache-dir", "--format", "--bound", "--oracle",
    "--table", "--out", "--family", "--site", "--delta", "--seed", "--count",
]  # fmt: skip
ARG_VALUES = st.sampled_from(
    ["2", "1,1", "json", "tsv", "lr", "file", "", "-", "--", "-h", "--ra", "--rank=2"]
)
ARG_VALUES |= st.text(alphabet="01-+_ ,:=xc", max_size=4)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.sampled_from(sorted(COMMANDS)),
    st.booleans(),
    st.lists(st.tuples(st.sampled_from(OPTIONS), ARG_VALUES), max_size=5),
    st.lists(st.sampled_from(OPTIONS) | ARG_VALUES, max_size=1),
)
def test_parse_args_matches_full_parse_on_generated_argv(capsys, command, required, pairs, tail):
    argv = [command, *(COMMANDS[command] if required else [])]
    argv += [x for pair in pairs for x in pair] + tail
    # a weight option's value that starts with a minus sign and a digit is
    # read as joined to it by =: test_negative_weight_parses_as_joined_to_its_option
    assume(
        not any(
            a in cli._WEIGHT_OPTIONS.get(command, ()) and b[:1] == "-" and b[1:2].isdigit()
            for a, b in zip(argv, argv[1:])
        )
    )
    assert parse_outcome(cli.parse_args, argv, capsys) == parse_outcome(parent_parse, argv, capsys)


def readme_examples() -> list:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("charrig ")]


# one argv of each shape the cli benchmark passes to cli.main
CLI_BENCHMARK_ARGV = [
    "char --rank 2 --weight 3,1 --cache-dir work/cache",
    "char --rank 3 --weight 0,2,1 --format tsv --cache-dir work/cache",
    "tensor --rank 3 --mu 1,0,1 --nu 0,1,0 --cache-dir work/cache",
    "reconstruct --rank 2 --bound 12 --oracle file --table work/lr.json --cache-dir work/cache",
    "perturb --rank 2 --bound 12 --seed 271828 --out work/perturbed.json --cache-dir work/cache",
    "verify --family work/perturbed.json --cache-dir work/cache",
]


def test_exact_pairs_parse_without_argparse(monkeypatch):
    argvs = [*readme_examples(), *map(str.split, CLI_BENCHMARK_ARGV)]
    assert len(argvs) == 14
    expected = [vars(parent_parse(argv)) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("argparse read an argv of exact --option value pairs")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert [vars(cli.parse_args(argv)) for argv in argvs] == expected


def reconstructed(tmp_path, capsys):
    """(family file, standard output) of reconstruct --out into a new
    regular file, checked against the recorded hashes."""
    fam = tmp_path / "reference.json"
    assert cli.main([*RECONSTRUCT, str(fam)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(fam.read_bytes()).hexdigest() == RECONSTRUCT_FAMILY_SHA256
    assert hashlib.sha256(out).hexdigest() == RECONSTRUCT_STDOUT_SHA256
    return fam.read_bytes(), out


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_out_into_a_pipe(tmp_path, capsys):
    family, out = reconstructed(tmp_path, capsys)
    res = subprocess.run(
        [sys.executable, "-m", "charrig", *RECONSTRUCT, "/dev/stdout"],
        capture_output=True,
        timeout=60,
    )
    assert (res.returncode, res.stdout, res.stderr) == (0, family + out, b"")


def parsed_in_sequence(text):
    """The JSON documents that text holds one after another."""
    decoder = json.JSONDecoder()
    docs, at = [], 0
    while at < len(text):
        doc, at = decoder.raw_decode(text, at)
        docs.append(doc)
        at = len(text) - len(text[at:].lstrip())
    return docs


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
@pytest.mark.parametrize("mode", ["wb", "ab"])  # the shell's > and >>
def test_out_into_standard_outputs_own_file(tmp_path, capsys, mode):
    # --out /dev/stdout opens the file standard output writes to afresh:
    # written through that descriptor, the family would start at offset 0,
    # over any earlier content, and the report would then overwrite it
    family, out = reconstructed(tmp_path, capsys)
    earlier = b'{"earlier": true}\n'
    target = tmp_path / "out.json"
    target.write_bytes(earlier)
    with open(target, mode) as fh:
        res = subprocess.run(
            [sys.executable, "-m", "charrig", *RECONSTRUCT, "/dev/stdout"],
            stdout=fh,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    assert (res.returncode, res.stderr) == (0, b"")
    kept = earlier if mode == "ab" else b""
    assert target.read_bytes() == kept + family + out
    docs = parsed_in_sequence(target.read_text())
    assert docs[-2:] == [json.loads(family), json.loads(out)]
    assert docs[:-2] == ([{"earlier": True}] if mode == "ab" else [])


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_out_into_a_fifo(tmp_path, capsys):
    family, out = reconstructed(tmp_path, capsys)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = subprocess.Popen(["cat", str(fifo)], stdout=subprocess.PIPE)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "charrig", *RECONSTRUCT, str(fifo)],
            capture_output=True,
            timeout=60,
        )
        read, _ = reader.communicate(timeout=60)
    finally:
        reader.kill()
        reader.wait()
    assert (res.returncode, res.stdout, res.stderr) == (0, out, b"")
    assert read == family


def test_out_over_a_longer_file_leaves_no_tail(tmp_path, capsys):
    family, out = reconstructed(tmp_path, capsys)
    target = tmp_path / "old.json"
    target.write_bytes(b"x" * (3 * len(family)))
    assert cli.main([*RECONSTRUCT, str(target)]) == 0
    assert capsys.readouterr().out.encode() == out
    assert target.read_bytes() == family


def test_out_through_a_symlink_rewrites_the_target(tmp_path, capsys):
    family, _ = reconstructed(tmp_path, capsys)
    target, link = tmp_path / "target.json", tmp_path / "link.json"
    target.write_bytes(b"x" * (3 * len(family)))
    link.symlink_to(target)
    assert cli.main([*RECONSTRUCT, str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == family


def test_out_keeps_the_mode_of_an_existing_file(tmp_path, capsys):
    family, _ = reconstructed(tmp_path, capsys)
    target = tmp_path / "old.json"
    target.write_bytes(b"x")
    target.chmod(0o604)
    assert cli.main([*RECONSTRUCT, str(target)]) == 0
    assert target.stat().st_mode & 0o777 == 0o604
    assert target.read_bytes() == family


def parent_write_error(path):
    """The stderr line of the write cli.main made before it wrote in place."""
    try:
        open(path, "w", encoding="utf-8", newline="").close()
    except OSError as exc:
        return f"charrig: cannot write {path}: {exc}\n"
    raise AssertionError(f"{path} is writable")


@pytest.mark.parametrize(
    "name,code",
    [("", errno.EISDIR), ("missing/fam.json", errno.ENOENT)],
)
def test_out_unwritable_exits_2(tmp_path, capsys, name, code):
    path = os.path.join(tmp_path, name)
    expected = parent_write_error(path)
    assert f"[Errno {code}]" in expected
    assert cli.main([*RECONSTRUCT, path]) == 2
    assert capsys.readouterr() == ("", expected)
    assert os.listdir(tmp_path) == []
