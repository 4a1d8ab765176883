"""Spherical factors, homogeneous distances and area-formula checks in
graded nilpotent groups."""

from .algebra import (ConfigurationError, GradedGroup, StructureConstants,
                      preset_group, group_from_dict)
from .metrics import (DistanceSpec, MultiradialProfile, check_axioms, dinf,
                      euclidean, from_profile, hebisch_sikora, koranyi)
from .subgroups import (ComplementaryPair, HomSubspace, is_normal,
                        is_subgroup, split, subspace_from_vectors)
from .factor import (FactorReport, convex_normal_check, random_subspace,
                     rotational_sweep, slice_volume_mc, slice_volume_nested,
                     spherical_factor)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "GradedGroup", "StructureConstants",
    "preset_group", "group_from_dict",
    "DistanceSpec", "MultiradialProfile", "check_axioms", "dinf",
    "euclidean", "from_profile", "hebisch_sikora", "koranyi",
    "ComplementaryPair", "HomSubspace", "is_normal", "is_subgroup",
    "split", "subspace_from_vectors",
    "FactorReport", "convex_normal_check", "random_subspace",
    "rotational_sweep", "slice_volume_mc", "slice_volume_nested",
    "spherical_factor",
    "__version__",
]
