"""Plactic and shifted plactic monoid toolkit.

Words over finite alphabet truncations, the Knuth and shifted Knuth
congruences with breadth-first class closure, Schensted and mixed insertion,
hook words, noncommutative Schur-type sums with quotient and commutative
projections, and a JSON-emitting verification harness.
"""

from ._kernels import backend_name as kernel_backend
from .words import (
    Interval,
    OrderedMorphism,
    Word,
    all_intervals,
    all_words,
    concat,
    content,
)
from .rewrite import (
    KNUTH,
    SHIFTED_KNUTH,
    Relation,
    RelationSet,
    canonical_word,
    class_dump,
    equiv_class,
    equivalent,
    relation_set_by_name,
    verify_factorization,
)
from .tableaux import (
    ShiftedTableau,
    Tableau,
    enumerate_hook,
    enumerate_ssyt,
    hook_factorization_check,
    is_hook_word,
    longest_hook_subword,
    mixed_insert,
    mixed_insert_word,
    p_tableau,
    partitions,
    reading_word,
    strict_partitions,
)
from .algebra import (
    CPoly,
    NcPoly,
    QuotientPoly,
    abelianize,
    commutator_in_quotient,
    free_schur,
    lr_expand,
    nc_mul,
    p_schur_poly,
    project_quotient,
    schur_poly,
    shifted_free_schur,
)
from .verify import (
    restriction_surprise,
    verify_axioms,
    verify_case_analysis,
    verify_section5,
    verify_tables,
)

__version__ = "0.1.0"

__all__ = [
    "CPoly",
    "Interval",
    "KNUTH",
    "NcPoly",
    "OrderedMorphism",
    "QuotientPoly",
    "Relation",
    "RelationSet",
    "SHIFTED_KNUTH",
    "ShiftedTableau",
    "Tableau",
    "Word",
    "abelianize",
    "all_intervals",
    "all_words",
    "canonical_word",
    "class_dump",
    "commutator_in_quotient",
    "concat",
    "content",
    "enumerate_hook",
    "enumerate_ssyt",
    "equiv_class",
    "equivalent",
    "free_schur",
    "hook_factorization_check",
    "is_hook_word",
    "kernel_backend",
    "longest_hook_subword",
    "lr_expand",
    "mixed_insert",
    "mixed_insert_word",
    "nc_mul",
    "p_schur_poly",
    "p_tableau",
    "partitions",
    "project_quotient",
    "reading_word",
    "relation_set_by_name",
    "restriction_surprise",
    "schur_poly",
    "shifted_free_schur",
    "strict_partitions",
    "verify_axioms",
    "verify_case_analysis",
    "verify_factorization",
    "verify_section5",
    "verify_tables",
]
