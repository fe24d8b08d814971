"""Strongly synchronizing automata, de Bruijn foldings, and transducer algebra."""

from .automata import (
    Automaton,
    CapExceededError,
    StatePartition,
    SyncSequence,
    core_of,
    de_bruijn,
    folding_from_sync,
    is_core,
    is_folding,
    quotient,
    sync_level,
    sync_map,
    sync_sequence,
)
from .counting import (
    bell,
    congruence_closure,
    count_foldings_g_n_2,
    enumerate_foldings,
    join_foldings,
    moebius_R,
)
from .decompose import (
    DecompositionStep,
    Factorization,
    decompose,
    decompose_involutions,
    verify,
)
from .digraph_aut import (
    DigraphAutomorphism,
    automorphism_from_alphabet_perm,
    compose_automorphisms,
    enumerate_automorphisms,
    involution_factors,
    is_permutation_induced,
    transducer_from_automorphism,
    verify_embedding,
)
from .rules import (
    LocalRule,
    apply_windows,
    compose,
    extend,
    rule_to_transducer,
    transducer_to_rule,
)
from .subgroups import (
    ChoiceDependenceError,
    SubgroupClosure,
    subgroup_automaton,
    subgroup_closure,
    w_word,
)
from .transducers import (
    Transducer,
    apply_periodic,
    bisync_levels,
    canonical_key,
    canonical_rep,
    core,
    equal_omega,
    hn_levels,
    identity_transducer,
    invert,
    is_in_hn,
    is_invertible,
    minimal_rep,
    order,
    product_min,
    product_raw,
    single_state,
    weak_minimize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
