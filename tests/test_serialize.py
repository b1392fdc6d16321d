import json

import pytest
from hypothesis import example, given, strategies as st

from charrig import rigidity
from charrig.lattice import from_fundamental
from charrig.rigidity import perturb_family, true_family, lr_table
from charrig.serialize import (
    FormatError,
    dump_doc,
    family_from_doc,
    family_to_doc,
    table_from_doc,
    table_to_doc,
)


def w(*coords):
    return from_fundamental(2, coords)


# strings with the characters JSON escapes: quotes, backslashes, control
# characters, non-ASCII ones and a lone surrogate
TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600') | st.characters())
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**80)
    | st.integers(max_value=-1)
    | st.floats()
    | TEXT
)
DOCS = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(TEXT, kids, max_size=4)
)


class TestDumpDoc:
    @given(DOCS)
    @example({"a": [], "b": {}, "\u00fc\"\\": [[-1, 2**64 + 1], {"\x01": None, "t": True}]})
    def test_bytes_of_json_dumps_indent_2(self, doc):
        assert dump_doc(doc) == json.dumps(doc, indent=2) + "\n"


class TestFamilyFormat:
    def test_round_trip_is_bit_exact(self):
        fam = true_family(2, 12)
        text = dump_doc(family_to_doc(fam))
        loaded = family_from_doc(json.loads(text))
        assert loaded.members == fam.members
        assert dump_doc(family_to_doc(loaded)) == text

    def test_perturbed_round_trip(self):
        fam = perturb_family(true_family(2, 10), w(1, 1), w(0, 0), -2)
        text = dump_doc(family_to_doc(fam))
        assert family_from_doc(json.loads(text)).members == fam.members

    def test_missing_field(self):
        with pytest.raises(FormatError):
            family_from_doc({"rank": 2, "members": []})

    def test_bad_rank(self):
        with pytest.raises(FormatError):
            family_from_doc({"rank": 0, "bound": 4, "members": []})

    def test_bool_rank_rejected(self):
        doc = family_to_doc(true_family(1, 4))
        doc["rank"] = True  # equal to 1, but not a JSON integer
        with pytest.raises(FormatError, match="bad rank"):
            family_from_doc(doc)

    def test_bool_bound_rejected(self):
        doc = family_to_doc(true_family(1, 1))
        doc["bound"] = True
        with pytest.raises(FormatError, match="bad bound"):
            family_from_doc(doc)

    def test_incomplete_index_set(self):
        doc = family_to_doc(true_family(2, 10))
        doc["members"] = doc["members"][:-1]
        with pytest.raises(FormatError):
            family_from_doc(doc)

    def test_support_outside_saturated_set(self):
        doc = family_to_doc(true_family(2, 10))
        entry = next(m for m in doc["members"] if m["lambda"] == [1, 0])
        entry["terms"].append({"mu": [2, 0], "coeff": 1})
        with pytest.raises(FormatError):
            family_from_doc(doc)

    def test_broken_unitriangularity(self):
        doc = family_to_doc(true_family(2, 10))
        entry = next(m for m in doc["members"] if m["lambda"] == [1, 1])
        entry["terms"][0]["coeff"] = 2
        with pytest.raises(FormatError):
            family_from_doc(doc)

    def test_far_bound_rejected_without_the_layout(self, monkeypatch):
        # the index set is checked member by member, never by enumerating
        # the dominant weights of the claimed bound
        doc = family_to_doc(true_family(2, 12))
        doc["bound"] = 10**6

        def layout(l, bound):
            raise AssertionError("the layout was built")

        monkeypatch.setattr(rigidity, "_layout", layout)
        with pytest.raises(FormatError, match="index set is not exactly"):
            family_from_doc(doc)

    def test_duplicate_term_rejected(self):
        doc = family_to_doc(true_family(2, 10))
        entry = next(m for m in doc["members"] if m["lambda"] == [1, 1])
        entry["terms"].append(dict(entry["terms"][-1], coeff=entry["terms"][-1]["coeff"] + 3))
        with pytest.raises(FormatError, match="duplicate term"):
            family_from_doc(doc)

    def test_non_dominant_weight(self):
        doc = family_to_doc(true_family(2, 10))
        doc["members"][1]["lambda"] = [1, -1]
        with pytest.raises(FormatError):
            family_from_doc(doc)


class TestTableFormat:
    def test_round_trip_is_bit_exact(self):
        entries = lr_table(2, 10)
        text = dump_doc(table_to_doc(2, entries))
        rank, loaded = table_from_doc(json.loads(text))
        assert rank == 2
        assert loaded == entries
        assert dump_doc(table_to_doc(rank, loaded)) == text

    def test_zero_values_are_stored(self):
        entries = lr_table(2, 12)
        assert any(v == 0 for v in entries.values())

    def test_bad_value(self):
        doc = table_to_doc(2, lr_table(2, 10))
        doc["entries"][0]["value"] = "1"
        with pytest.raises(FormatError):
            table_from_doc(doc)

    def test_duplicate_entry_rejected(self):
        doc = table_to_doc(2, lr_table(2, 12))
        doc["entries"].append(dict(doc["entries"][0], value=doc["entries"][0]["value"] + 3))
        with pytest.raises(FormatError, match="duplicate entry"):
            table_from_doc(doc)

    def test_bool_rank_rejected(self):
        doc = table_to_doc(1, lr_table(1, 4))
        doc["rank"] = True
        with pytest.raises(FormatError, match="bad rank"):
            table_from_doc(doc)

    def test_missing_entries(self):
        with pytest.raises(FormatError):
            table_from_doc({"rank": 2})
