"""Exact idempotent structure of commutative monoids.

The layers, bottom to top:

- ``lattices``: integer matrices, Hermite and Smith forms, kernels,
  saturation.
- ``cones``: rational polyhedral cones from generators, faces, signed
  circuits and the face test they give, and a Fourier-Motzkin face
  oracle kept as the reference.
- ``monoids``: weight monoids, their idempotent posets, and envelope
  reports.
- ``eigen``: from a nonzero rational spectrum to the idempotent poset of
  the monoid its diagonal matrix generates.
- ``finite``: brute-force facts about finite semigroup multiplication
  tables, used as an oracle layer.
- ``cli``: versioned JSON jobs, reports, DOT export, and the command line.
"""

from .cli import SCHEMA, export_dot, run, run_selftest
from .cones import (
    Cone,
    Face,
    FacePoset,
    circuit_criterion,
    cone_from_generators,
    enumerate_faces,
    face_meet,
    is_face,
    sign_masks,
    signed_circuits,
    solve_affine,
)
from .eigen import (
    EigenInput,
    ExponentTable,
    PrimitiveRelation,
    character_data,
    check_relation_criterion,
    eigen_input,
    factor,
    idempotent_set,
    power_invariance,
    primitive_relations,
    reconstruct,
    relation_masks,
    smallest_idempotent_indices,
)
from .errors import InputError, InternalCheckError
from .finite import (
    FiniteSemigroup,
    GreensClasses,
    IndexPeriod,
    PeirceSets,
    all_associative_tables,
    all_commutative_tables,
    check_smallest_criterion,
    direct_product,
    greens_classes,
    idempotent_elements,
    idempotent_power,
    index_period,
    is_minimum_idempotent,
    left_zero,
    peirce_sets,
    right_zero,
    smallest_idempotent_commutative,
    standard_catalogue,
    validate_table,
    zmod_times,
)
from .lattices import (
    IntegerMatrix,
    Sublattice,
    determinant,
    hermite_normal_form,
    kernel_lattice,
    lattice_member,
    rank,
    saturate,
    smith_normal_form,
)
from .monoids import (
    Idempotent,
    IdempotentPoset,
    ToricEnvelopeReport,
    WeightMonoid,
    canonical_form,
    cone_and_poset,
    idempotent_product,
    idempotents,
    largest_idempotent,
    maximal_chain_length,
    monoid_from_generators,
    smallest_idempotent,
    toric_envelope,
)

__version__ = "0.1.0"

__all__ = [
    "SCHEMA",
    "Cone",
    "EigenInput",
    "ExponentTable",
    "Face",
    "FacePoset",
    "FiniteSemigroup",
    "GreensClasses",
    "Idempotent",
    "IdempotentPoset",
    "IndexPeriod",
    "InputError",
    "IntegerMatrix",
    "InternalCheckError",
    "PeirceSets",
    "PrimitiveRelation",
    "Sublattice",
    "ToricEnvelopeReport",
    "WeightMonoid",
    "all_associative_tables",
    "all_commutative_tables",
    "canonical_form",
    "character_data",
    "check_relation_criterion",
    "check_smallest_criterion",
    "circuit_criterion",
    "cone_and_poset",
    "cone_from_generators",
    "determinant",
    "direct_product",
    "eigen_input",
    "enumerate_faces",
    "export_dot",
    "face_meet",
    "factor",
    "greens_classes",
    "hermite_normal_form",
    "idempotent_elements",
    "idempotent_power",
    "idempotent_product",
    "idempotent_set",
    "idempotents",
    "index_period",
    "is_face",
    "is_minimum_idempotent",
    "kernel_lattice",
    "largest_idempotent",
    "lattice_member",
    "left_zero",
    "maximal_chain_length",
    "monoid_from_generators",
    "peirce_sets",
    "power_invariance",
    "primitive_relations",
    "rank",
    "reconstruct",
    "relation_masks",
    "right_zero",
    "run",
    "run_selftest",
    "saturate",
    "sign_masks",
    "signed_circuits",
    "smallest_idempotent",
    "smallest_idempotent_commutative",
    "smallest_idempotent_indices",
    "smith_normal_form",
    "solve_affine",
    "standard_catalogue",
    "toric_envelope",
    "validate_table",
    "zmod_times",
    "__version__",
]
