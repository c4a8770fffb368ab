"""Krohn-Rhodes cascade decomposition of finite semiautomata.

The package decomposes any finite semiautomaton into a cascade of simple
grouplike automata and two-state resets. Every construction step carries an
explicit covering witness that can be re-verified independently of the code
that produced it.
"""

from .algebra import (
    Congruence,
    FiniteMonoid,
    MonoidHom,
    Transformation,
    closure_generate,
    direct_product_monoid,
    evaluate_word,
    find_identity,
    hom_factorize,
    is_associative,
    kernel_congruence,
    quotient_monoid,
    render_word,
    right_regular_representation,
)
from .automata import (
    CoveringWitness,
    HomImageWitness,
    Semiautomaton,
    VerificationResult,
    cascade_product,
    compose_coverings,
    direct_product,
    identity_witness,
    run,
    simulation_counterexample,
    substitute,
    substitute_left,
    substitute_right,
    transition_monoid,
    verify_covering,
    verify_hom_image,
    word_transformation,
)
from .errors import (
    InvalidCongruenceError,
    InvalidInputError,
    KrcascadeError,
    NotAGroupError,
    NotPermutationResetError,
    ParseError,
    ResourceCapError,
    WitnessError,
)
from .groups import (
    CosetPartition,
    FiniteGroup,
    composition_factors,
    composition_series,
    coset_partition,
    enumerate_subgroups,
    factor_group,
    group_from_table,
    is_normal,
    is_simple,
    is_subgroup,
    subgroup_as_group,
    subgroup_closure,
)
from .io import (
    emit_automaton,
    emit_witness,
    export_dot,
    parse_automaton,
    parse_witness,
    render_tree_text,
    tree_report,
)
from .partitions import (
    Decomposition,
    FactorChoice,
    Partition,
    cascade_cover_from_decomposition,
    cascade_cover_from_partition,
    complementary_partition,
    d_factor,
    is_admissible_decomposition,
    is_admissible_partition,
    p_factor,
    yoeli_auxiliary,
)
from .pipeline import (
    Caps,
    CascadeNode,
    DirectNode,
    InputClass,
    LEAF_GROUPLIKE,
    LEAF_RAW,
    LEAF_RESET,
    Leaf,
    canonical_group_key,
    classify_inputs,
    cover_permutation_by_grouplike,
    grouplike_cascade_split,
    grouplike_of,
    grouplike_to_simple_cascade,
    is_complete,
    is_permutation,
    is_permutation_reset,
    is_reset,
    iter_nodes,
    krohn_rhodes_decompose,
    leaf_description,
    leaves,
    pr_chain,
    reset_to_two_state,
    split_permutation_reset,
    summarize_leaves,
    verify_tree,
)

__version__ = "1.0.0"
