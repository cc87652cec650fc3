"""Representations of chromatic nonassociative algebras as edge
colourings of complete graphs: construction, verification, search and
enumeration at desk scale."""

from .algebra import (AtomStructure, Signature, check_na_atom_structure,
                      chromatic_atoms, compose, is_associative,
                      peircean_transforms)
from .colouring import (EdgeColouring, Level, VerificationReport,
                        are_isomorphic, canonical_form, verify)
from .constructions import (DelegatedToSearch, NotConstructible, construct,
                            walecki, walecki_witness)
from .geometry import (LinearSpace, affine_plane, colouring_from_parallelism,
                       drop_points, linear_space_from_colouring,
                       near_pencil)
from .quasigroup import (Quasigroup, lambda1, lambda2,
                         quasigroup_from_colouring, standard_qn)
from .search import SearchOutcome, enumerate_representations, search

__all__ = [
    "AtomStructure", "Signature", "check_na_atom_structure",
    "chromatic_atoms", "compose", "is_associative", "peircean_transforms",
    "EdgeColouring", "Level", "VerificationReport", "are_isomorphic",
    "canonical_form", "verify", "DelegatedToSearch", "NotConstructible",
    "construct", "walecki", "walecki_witness", "LinearSpace",
    "affine_plane", "colouring_from_parallelism", "drop_points",
    "linear_space_from_colouring", "near_pencil", "Quasigroup", "lambda1",
    "lambda2", "quasigroup_from_colouring", "standard_qn", "SearchOutcome",
    "enumerate_representations", "search",
]

__version__ = "0.1.0"
