"""Exact characters, tensor decompositions, and rigidity checks for
simple Lie algebras of type A.

Import names from the submodules (``charrig.lattice``, ``charrig.ring``,
``charrig.oracle``, ``charrig.rigidity``, ``charrig.serialize``,
``charrig.cli``); the package itself exports only ``__version__``."""

__version__ = "0.1.0"
