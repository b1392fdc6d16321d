"""The truth the duality check anchors on, against references that share
no code with the library.

bench/refs.py computes a character as Kostka numbers, by counting
semistandard tableaux, and a tensor product by the Littlewood-Richardson
rule, filling skew shapes.  The library computes them by Freudenthal's
recursion and the Brauer-Klimyk formula, and the rows of the duality
check's reference are tensor_decompose's."""

import importlib.util
import os

import pytest

from charrig.lattice import add, dominant_weights_up_to, height
from charrig.oracle import freudenthal_character, tensor_decompose

_REFS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "refs.py")
_spec = importlib.util.spec_from_file_location("refs", _REFS)
refs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(refs)


@pytest.mark.parametrize("l,bound", [(1, 80), (2, 48), (3, 36), (4, 30)])
def test_characters_are_kostka_numbers(l, bound):
    weights = dominant_weights_up_to(l, bound)
    assert set(weights) == set(refs.dominant_weights(l, bound))
    for lam in weights:
        assert freudenthal_character(l, lam).terms == refs.character(lam)


@pytest.mark.parametrize("l,bound", [(1, 40), (2, 40), (3, 30), (4, 30)])
def test_tensor_products_are_littlewood_richardson(l, bound):
    weights = dominant_weights_up_to(l, bound)
    pairs = [
        (a, b) for i, a in enumerate(weights) for b in weights[i:] if height(add(a, b)) <= bound
    ]
    assert len(pairs) > len(weights)
    for a, b in pairs:
        assert tensor_decompose(l, a, b) == refs.littlewood_richardson(a, b)
