"""Command-line surface.

Weights on the command line are comma-separated fundamental coordinates.
JSON is the interchange format of record; char and tensor tables can
also be rendered as TSV for spreadsheet diffing.

Exit codes: 0 success/pass, 1 mathematical failure (nonempty diff or
condition violation), 2 input error, 3 oracle incompleteness.
"""

import argparse
import functools
import json
import os
import random
import stat
import sys

from . import oracle, rigidity, serialize
from .lattice import from_fundamental, fundamental_coords, orbit_size
from .ring import sorted_terms
from .serialize import FormatError


class CLIError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        self.message = message
        super().__init__(message)


def _parse_coords(text: str, l: int) -> tuple[int, ...]:
    parts = text.split(",")
    # an optional minus sign and ASCII digits: int() alone also takes 1_0
    # for 10, a plus sign and the digits of other scripts
    unsigned = [p.strip().removeprefix("-") for p in parts]
    if not all(u.isascii() and u.isdigit() for u in unsigned):
        raise CLIError(2, f"malformed weight {text!r}")
    coords = tuple(map(int, parts))
    if len(coords) != l:
        raise CLIError(2, f"expected {l} coordinates in {text!r}")
    return coords


def _parse_dominant(text: str, l: int):
    coords = _parse_coords(text, l)
    if any(c < 0 for c in coords):
        raise CLIError(2, f"weight {text!r} has a negative fundamental coordinate")
    return from_fundamental(l, coords)


def _cache_dir(args) -> str | None:
    return args.cache_dir or os.environ.get("CHARRIG_CACHE") or None


def _coords_str(eps) -> str:
    return ",".join(str(c) for c in fundamental_coords(eps))


def _print_table(
    fmt: str, rows: list, columns: tuple, head: dict, tail: dict, last: str
) -> None:
    """Print (weight, value, ...) rows under columns: as JSON, head, the
    rows keyed by columns, then tail; as TSV, a header, the rows, then last."""
    if fmt == "json":
        table = [dict(zip(columns, (serialize.weight_doc(r[0]), *r[1:]))) for r in rows]
        sys.stdout.write(serialize.dump_doc({**head, "rows": table, **tail}))
    else:
        lines = ["\t".join([_coords_str(r[0]), *map(str, r[1:])]) for r in rows]
        sys.stdout.write("\n".join(["\t".join(columns), *lines, last]) + "\n")


def _read_json(path: str, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise CLIError(2, f"cannot read {what} {path}: {exc}") from None


def _is_stdout(st: os.stat_result) -> bool:
    """st names the file that sys.stdout writes to.  A stand-in such as
    io.StringIO has no file descriptor and names none."""
    try:
        return os.path.samestat(st, os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):
        return False


def _write_file(path: str, text: str) -> None:
    """Write text to path in place, not atomically.  A regular file is cut
    to the new length after the write, not emptied before it: on ext4,
    writing into a file truncated to zero makes its close flush it to disk.
    A pipe, FIFO or device cannot be truncated and is only written.  The
    file standard output writes to, such as /dev/stdout, is written
    through sys.stdout and not cut: its own descriptor would write from
    offset 0, over what is printed before or after it."""
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            st = os.fstat(fh.fileno())
            if _is_stdout(st):
                sys.stdout.write(text)
                sys.stdout.flush()  # a failed write is reported here, as below
                return
            fh.write(text.encode("utf-8"))
            if stat.S_ISREG(st.st_mode):
                fh.truncate()
    except OSError as exc:
        raise CLIError(2, f"cannot write {path}: {exc}") from None


def cmd_char(args) -> int:
    lam = _parse_dominant(args.weight, args.rank)
    ch = oracle.freudenthal_character(args.rank, lam, _cache_dir(args))
    rows = [(mu, m, orbit_size(mu)) for mu, m in sorted_terms(ch.terms)]
    dim = oracle.weyl_dim(args.rank, lam)
    head = {"rank": args.rank, "lambda": serialize.weight_doc(lam)}
    columns = ("mu", "multiplicity", "orbit_size")
    _print_table(args.format, rows, columns, head, {"dimension": dim}, f"dimension\t{dim}\t")
    return 0


def cmd_tensor(args) -> int:
    mu = _parse_dominant(args.mu, args.rank)
    nu = _parse_dominant(args.nu, args.rank)
    row = oracle.tensor_decompose(args.rank, mu, nu, _cache_dir(args))
    rows = [(lam, c, oracle.weyl_dim(args.rank, lam)) for lam, c in sorted_terms(row)]
    total = sum(c * dim for _, c, dim in rows)
    product = oracle.weyl_dim(args.rank, mu) * oracle.weyl_dim(args.rank, nu)
    head = {"rank": args.rank, "mu": serialize.weight_doc(mu), "nu": serialize.weight_doc(nu)}
    tail = {"dimension_sum": total, "dimension_product": product}
    columns = ("lambda", "coeff", "dimension")
    _print_table(args.format, rows, columns, head, tail, f"dimension_check\t{total}\t{product}")
    return 0


def cmd_reconstruct(args) -> int:
    cache = _cache_dir(args)
    if args.oracle == "lr":
        if args.table is not None:
            raise CLIError(2, "--table requires --oracle file")
        query = rigidity.lr_oracle(args.rank, cache)
    else:
        if not args.table:
            raise CLIError(2, "--oracle file requires --table")
        try:
            table_rank, entries = serialize.table_from_doc(_read_json(args.table, "table"))
        except FormatError as exc:
            raise CLIError(2, f"malformed table file: {exc}") from None
        if table_rank != args.rank:
            raise CLIError(2, f"table rank {table_rank} does not match --rank {args.rank}")
        query = rigidity.table_oracle(entries)
    try:
        fam = rigidity.reconstruct_family(query, args.rank, args.bound)
    except rigidity.OracleIncomplete as exc:
        mu, nu, s = exc.triple
        raise CLIError(
            3,
            "oracle incomplete: missing entry for "
            f"({_coords_str(mu)}; {_coords_str(nu)}; {_coords_str(s)})",
        ) from None
    truth = oracle.true_characters(args.rank, args.bound, cache)
    diff = [
        {
            "lambda": serialize.weight_doc(lam),
            "expected": serialize.terms_doc(truth[lam]),
            "found": serialize.terms_doc(fam.members[lam]),
        }
        for lam in fam.index_set()
        if fam.members[lam] != truth[lam]
    ]
    if args.out:
        _write_file(args.out, serialize.dump_doc(serialize.family_to_doc(fam)))
    doc = {
        "rank": args.rank,
        "bound": args.bound,
        "oracle": args.oracle,
        "members": len(fam.members),
        "diff": diff,
        "equal": not diff,
    }
    sys.stdout.write(serialize.dump_doc(doc))
    return 0 if not diff else 1


def _load_family(path: str):
    try:
        return serialize.family_from_doc(_read_json(path, "family"))
    except FormatError as exc:
        raise CLIError(2, f"malformed family file: {exc}") from None


def cmd_verify(args) -> int:
    fam = _load_family(args.family)
    if args.rank is not None and args.rank != fam.rank:
        raise CLIError(2, f"family rank {fam.rank} does not match --rank {args.rank}")
    report = rigidity.verify_family(fam, _cache_dir(args))
    doc = {
        "rank": fam.rank,
        "bound": fam.bound,
        "support_condition": {
            "verdict": "pass" if report.support_pass else "fail",
            "violations": [
                {
                    "lambda": serialize.weight_doc(lam),
                    "mu": serialize.weight_doc(mu),
                    "expected": expected,
                    "found": found,
                }
                for lam, mu, expected, found in report.support_violations
            ],
        },
        "duality_condition": {
            "verdict": "pass" if report.duality_pass else "fail",
            "violations": [
                {
                    "mu": serialize.weight_doc(mu),
                    "nu": serialize.weight_doc(nu),
                    "lambda": serialize.weight_doc(lam),
                    "lhs": lhs,
                    "rhs": rhs,
                }
                for mu, nu, lam, lhs, rhs in report.duality_violations
            ],
            "skipped_count": len(report.skipped),
        },
        "members_equal": report.members_equal,
    }
    sys.stdout.write(serialize.dump_doc(doc))
    return 0 if report.passed else 1


def cmd_perturb(args) -> int:
    if args.count < 1:
        raise CLIError(2, f"count must be >= 1, got {args.count}")
    cache = _cache_dir(args)
    fam = rigidity.true_family(args.rank, args.bound, cache)
    applied = []
    if args.site is not None:
        if args.delta is None:
            raise CLIError(2, "--site requires --delta")
        if args.delta == 0:
            raise CLIError(2, "delta must be nonzero")
        try:
            lam_text, mu_text = args.site.split(":")
        except ValueError:
            raise CLIError(2, f"malformed site {args.site!r}, expected LAM:MU") from None
        lam = _parse_dominant(lam_text, args.rank)
        mu = _parse_dominant(mu_text, args.rank)
        try:
            fam = rigidity.perturb_family(fam, lam, mu, args.delta)
        except rigidity.PerturbationError as exc:
            raise CLIError(2, str(exc)) from None
        applied.append((lam, mu, args.delta))
    elif args.seed is not None:
        rng = random.Random(args.seed)
        sites = rigidity.perturbation_sites(fam)
        if not sites:
            raise CLIError(2, "family has no perturbation sites")
        count = min(args.count, len(sites))
        for lam, mu in rng.sample(sites, count):
            delta = rng.choice([-3, -2, -1, 1, 2, 3])
            fam = rigidity.perturb_family(fam, lam, mu, delta)
            applied.append((lam, mu, delta))
    else:
        raise CLIError(2, "either --site/--delta or --seed is required")
    _write_file(args.out, serialize.dump_doc(serialize.family_to_doc(fam)))
    doc = {
        "rank": args.rank,
        "bound": args.bound,
        "out": args.out,
        "perturbations": [
            {
                "lambda": serialize.weight_doc(lam),
                "mu": serialize.weight_doc(mu),
                "delta": delta,
            }
            for lam, mu, delta in applied
        ],
    }
    sys.stdout.write(serialize.dump_doc(doc))
    return 0


def cmd_table(args) -> int:
    entries = rigidity.lr_table(args.rank, args.bound, _cache_dir(args))
    text = serialize.dump_doc(serialize.table_to_doc(args.rank, entries))
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _add_common(p, fmt=False) -> None:
    p.add_argument("--cache-dir", help="persistent character cache directory")
    if fmt:
        p.add_argument("--format", choices=("json", "tsv"), default="json")


@functools.cache
def _parsers() -> tuple:
    """The charrig parser and its {command: subparser} map, built once
    per process: parse_args leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="charrig",
        description="Exact type A characters, tensor decompositions, and "
        "rigidity checks for candidate character families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("char", help="weight multiplicity table of a character")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--weight", required=True, help="fundamental coordinates, e.g. 1,1")
    _add_common(p, fmt=True)
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("tensor", help="tensor product decomposition")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    _add_common(p, fmt=True)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser(
        "reconstruct", help="rebuild a family from a structure-constant oracle"
    )
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--oracle", choices=("lr", "file"), default="lr")
    p.add_argument("--table", help="structure-constant table file (for --oracle file)")
    p.add_argument("--out", help="write the reconstructed family here")
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="run the rigidity checks on a family file")
    p.add_argument("--family", required=True)
    p.add_argument("--rank", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("perturb", help="write a perturbed true family")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--site", help="perturbation site LAM:MU, e.g. 1,1:0,0")
    p.add_argument("--delta", type=int)
    p.add_argument("--seed", type=int, help="randomized site selection")
    p.add_argument("--count", type=int, default=1, help="sites to perturb with --seed")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("table", help="emit the true structure-constant table")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_table)

    return parser, sub.choices


def parse_args(argv=None):
    """The namespace _parsers()[0].parse_args(argv) returns, in one
    argparse pass: the command's own parser reads the arguments after the
    command word.  The top-level parser runs only where the full parse
    ends in help or an error (no command, an unknown one, or arguments the
    command does not take), so it prints and exits as the full parse."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        return parser.parse_args(argv)  # exits 2: unrecognized arguments
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Run one command on argv (default sys.argv[1:]) and return its exit
    code.  Arguments go through parse_args: the top-level parser runs
    only for help and errors."""
    args = parse_args(argv)
    try:
        if getattr(args, "rank", None) is not None and args.rank < 1 and args.command != "verify":
            raise CLIError(2, f"rank must be >= 1, got {args.rank}")
        if getattr(args, "bound", None) is not None and args.bound < 0:
            raise CLIError(2, f"bound must be >= 0, got {args.bound}")
        return args.func(args)
    except CLIError as exc:
        print(f"charrig: {exc.message}", file=sys.stderr)
        return exc.code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
