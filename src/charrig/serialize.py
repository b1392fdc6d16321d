"""File formats for families and structure-constant tables.

Both formats are JSON documents with weights written as fundamental
coordinate arrays, entries sorted by the processing order, so that a
load/dump round trip is byte-exact.  dump_doc writes exactly the bytes
of json.dumps(doc, indent=2) and a newline, with a writer that skips the
pure-Python encoder the indent option selects.
"""

import json

from .lattice import Eps, from_fundamental, fundamental_coords, processing_key
from .rigidity import CharacterFamily, validate_family
from .ring import CharElement, sorted_terms


class FormatError(ValueError):
    """Document does not conform to the family/table schema."""


def weight_doc(eps: Eps) -> list[int]:
    return list(fundamental_coords(eps))


def parse_weight(l: int, arr) -> Eps:
    # type(True) is bool, so only JSON integers pass
    if not isinstance(arr, list) or len(arr) != l or any(type(c) is not int for c in arr):
        raise FormatError(f"bad weight {arr!r} for rank {l}")
    if any(c < 0 for c in arr):
        raise FormatError(f"weight {arr!r} is not dominant")
    return from_fundamental(l, arr)


_quote = json.encoder.encode_basestring_ascii  # json's C string encoder


def dump_doc(doc) -> str:
    """doc as the text json.dumps(doc, indent=2) + "\\n" gives; its keys
    are strings, as in every document written here."""
    out: list[str] = []
    _write(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(x, nl: str, out: list[str]) -> None:
    """Append x's JSON to out, its lines after the first starting with nl."""
    if isinstance(x, str):
        out.append(_quote(x))
    elif type(x) is int:
        out.append(int.__repr__(x))  # json's own rule for an int
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in x.items():
            out.append(sep + _quote(k) + ": ")
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(json.dumps(x))


def terms_doc(f: CharElement) -> list[dict]:
    return [{"mu": weight_doc(mu), "coeff": c} for mu, c in sorted_terms(f.terms)]


def family_to_doc(fam: CharacterFamily) -> dict:
    members = [
        {"lambda": weight_doc(lam), "terms": terms_doc(fam.members[lam])}
        for lam in fam.index_set()
    ]
    return {"rank": fam.rank, "bound": fam.bound, "members": members}


def family_from_doc(doc) -> CharacterFamily:
    try:
        l = doc["rank"]
        bound = doc["bound"]
        member_docs = doc["members"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"missing field: {exc}") from None
    if type(l) is not int or l < 1:
        raise FormatError(f"bad rank {l!r}")
    if type(bound) is not int or bound < 0:
        raise FormatError(f"bad bound {bound!r}")
    if not isinstance(member_docs, list):
        raise FormatError("members must be a list")
    members = {}
    for md in member_docs:
        try:
            lam = parse_weight(l, md["lambda"])
            terms = {}
            for td in md["terms"]:
                mu = parse_weight(l, td["mu"])
                coeff = td["coeff"]
                if type(coeff) is not int:
                    raise FormatError(f"bad coefficient {coeff!r}")
                if mu in terms:
                    raise FormatError(f"duplicate term {td['mu']} in member {md['lambda']}")
                terms[mu] = coeff
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed member: {exc}") from None
        if lam in members:
            raise FormatError(f"duplicate member {md['lambda']}")
        members[lam] = CharElement(l, terms)
    fam = CharacterFamily(l, bound, members)
    try:
        validate_family(fam)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return fam


def table_to_doc(l: int, entries: dict) -> dict:
    rows = []
    order = sorted(entries.items(), key=lambda kv: tuple(map(processing_key, kv[0])))
    for (mu, nu, lam), value in order:
        rows.append(
            {
                "mu": weight_doc(mu),
                "nu": weight_doc(nu),
                "lambda": weight_doc(lam),
                "value": value,
            }
        )
    return {"rank": l, "entries": rows}


def table_from_doc(doc) -> tuple[int, dict]:
    try:
        l = doc["rank"]
        rows = doc["entries"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"missing field: {exc}") from None
    if type(l) is not int or l < 1:
        raise FormatError(f"bad rank {l!r}")
    if not isinstance(rows, list):
        raise FormatError("entries must be a list")
    entries = {}
    for row in rows:
        try:
            mu = parse_weight(l, row["mu"])
            nu = parse_weight(l, row["nu"])
            lam = parse_weight(l, row["lambda"])
            value = row["value"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"malformed entry: {exc}") from None
        if type(value) is not int:
            raise FormatError(f"bad value {value!r}")
        if (mu, nu, lam) in entries:
            raise FormatError(f"duplicate entry {row['mu']}, {row['nu']}, {row['lambda']}")
        entries[(mu, nu, lam)] = value
    return l, entries
