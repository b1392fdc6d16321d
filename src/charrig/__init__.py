"""Exact characters, tensor decompositions, and rigidity checks for
simple Lie algebras of type A."""

from .lattice import (
    NotInRootLattice,
    add,
    canonical,
    dominance_leq,
    dominant_representative,
    dominant_weights_up_to,
    dual_weight,
    from_fundamental,
    fundamental_coords,
    fundamental_weight,
    height,
    is_dominant,
    orbit,
    orbit_size,
    pairing,
    positive_roots,
    processing_key,
    rho,
    root_coordinates,
    saturated_dominants,
    support_size,
    zero_weight,
)
from .oracle import decompose, freudenthal_character, tensor_decompose, weyl_dim
from .rigidity import (
    BoundExceeded,
    CharacterFamily,
    ConditionReport,
    OracleIncomplete,
    PerturbationError,
    check_duality_condition,
    check_support_condition,
    default_split,
    extract_structure_constants,
    lr_oracle,
    lr_table,
    multiplicity_from_product,
    perturb_family,
    perturbation_sites,
    random_split,
    reconstruct_family,
    table_oracle,
    true_family,
    validate_family,
    verify_family,
)
from .ring import CharElement, orbit_sum, unit, zero

__version__ = "0.1.0"
