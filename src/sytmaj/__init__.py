"""Exact major-index combinatorics on standard Young tableaux.

Generating functions via (q^d - 1) binomial forms, fake degrees for all
groups G(m,d,n) (the wreath products are G(m,1,n)), deformed Gaussian
multinomials, maj-raising tableau mutations with their two ranked posets,
and closed-form nonzero-coefficient classifiers backed by brute-force
oracles.
"""

from .shapes import (
    BlockShape,
    DNotDividingM,
    Partition,
    SkewShape,
    b_composition,
    b_statistic,
    block_coordinates,
    corners_and_notches,
    hook_lengths,
    hook_multiset,
    parse_blocks,
    parse_partition,
    partitions,
    rotate_right,
    rotation_class,
)
from .qpolys import (
    BinomialForm,
    NonzeroRemainder,
    QPoly,
    divide_exact_int,
    expand,
    q_binomial,
    q_factorial,
    q_int,
    q_multinomial,
    shape_predicates,
    substitute_power,
)
from .tableaux import (
    BoundExceeded,
    ShapeNotOneRowBlocks,
    Tableau,
    canonical_orbit_tableaux,
    enumerate_tableaux,
    exceptional_set,
    maxmaj_tableau,
    minmaj_tableau,
    to_word,
    word_descent_set,
    word_inv,
)
from .genfun import (
    gmdn_fake_degree,
    stanley,
    syt_count,
    wreath_fake_degree,
)
from .deformed import (
    deformed_multinomial,
    partial_sum_multinomial,
)
from .mutations import (
    ExceptionalTableau,
    Move,
    PhiBranchError,
    SytPoset,
    block_rule,
    build_poset,
    negative_rotations,
    phi,
    phi_move,
    positive_rotations,
    verify_ranked,
)
from .zeros import (
    SupportPrediction,
    SupportReport,
    check_parity_unimodal,
    support_des,
    support_gmdn,
    support_type_A,
    verify_support,
)

__all__ = [
    # shapes
    "BlockShape", "DNotDividingM", "Partition", "SkewShape", "b_composition",
    "b_statistic", "block_coordinates", "corners_and_notches", "hook_lengths",
    "hook_multiset", "parse_blocks", "parse_partition", "partitions",
    "rotate_right", "rotation_class",
    # qpolys
    "BinomialForm", "NonzeroRemainder", "QPoly", "divide_exact_int",
    "expand", "q_binomial", "q_factorial", "q_int", "q_multinomial",
    "shape_predicates", "substitute_power",
    # tableaux
    "BoundExceeded", "ShapeNotOneRowBlocks", "Tableau",
    "canonical_orbit_tableaux", "enumerate_tableaux", "exceptional_set",
    "maxmaj_tableau", "minmaj_tableau", "to_word", "word_descent_set",
    "word_inv",
    # genfun
    "gmdn_fake_degree", "stanley", "syt_count", "wreath_fake_degree",
    # deformed
    "deformed_multinomial", "partial_sum_multinomial",
    # mutations
    "ExceptionalTableau", "Move", "PhiBranchError", "SytPoset", "block_rule",
    "build_poset", "negative_rotations", "phi", "phi_move",
    "positive_rotations", "verify_ranked",
    # zeros
    "SupportPrediction", "SupportReport", "check_parity_unimodal",
    "support_des", "support_gmdn", "support_type_A", "verify_support",
]
