"""Greedy maximum-perimeter analysis of finite ultrametric point sets.

Every public name is loaded from its home module on first access, so
`import ultragreedy.cli` loads only the modules a command uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {  # exported name -> the module that defines it
    "AxiomReport": "greedoid",
    "EquivHierarchy": "constructions",
    "FullUltraTriple": "core",
    "GreedyTrace": "greedy",
    "MaxResult": "oracle",
    "Rational": "core",
    "SetSystem": "greedoid",
    "UltraTriple": "core",
    "ValidationReport": "core",
    "Violation": "core",
    "WeightedTree": "constructions",
    "all_greedy_permutations": "greedy",
    "all_greedy_traces": "greedy",
    "bhargava_greedoid": "greedoid",
    "brute_all_greedy": "oracle",
    "brute_max_perimeter": "oracle",
    "brute_max_tuple_perimeter": "oracle",
    "brute_validate": "oracle",
    "check_axiom_i": "greedoid",
    "check_axiom_ii": "greedoid",
    "check_axiom_iii": "greedoid",
    "check_axiom_iv": "greedoid",
    "check_equivalence": "bhargava",
    "check_matroid_bases": "greedoid",
    "clone_triple": "greedy",
    "constant_triple": "constructions",
    "count_greedy_permutations": "greedy",
    "eqrel_triple": "constructions",
    "exchange_element": "greedoid",
    "extend_greedy": "greedy",
    "extend_to_full": "constructions",
    "greedy_permutation": "greedy",
    "greedy_subsequence": "greedy",
    "is_greedy_permutation": "greedy",
    "is_greedy_subsequence": "greedy",
    "is_pm_ordering": "bhargava",
    "is_prime": "bhargava",
    "level_sets": "greedoid",
    "mask_from_points": "greedoid",
    "mod_triple": "constructions",
    "nu": "greedy",
    "nu_bar": "greedy",
    "nu_bar_inequality_check": "greedy",
    "padic_log_triple": "constructions",
    "padic_triple": "constructions",
    "perimeter_set": "core",
    "perimeter_tuple": "core",
    "pm_ordering": "bhargava",
    "points_from_mask": "greedoid",
    "projections": "core",
    "random_ultra_triple": "oracle",
    "rational": "core",
    "rseq_triple": "constructions",
    "shift_distances": "constructions",
    "strong_exchange_pair": "greedoid",
    "tree_triple": "constructions",
    "validate": "core",
    "vp": "bhargava",
}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_HOMES[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
