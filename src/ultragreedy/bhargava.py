"""p-adic valuations and P-orderings of integer sets.

A (P,m)-ordering greedily picks each next integer to minimize the p-adic
valuation of the product of its differences with the earlier picks.  For
zero weights this is the same selection as a greedy permutation under the
distance -v_p(a-b), and `check_equivalence` asserts that both codepaths
agree verdict-for-verdict.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from . import constructions, greedy

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _BASES (Sorenson and Webster 2015)
_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Trial division by the primes up to 41, then Miller-Rabin to those 13
    bases, which is exact below 3,317,044,064,679,887,385,961,981; above
    that bound a number with no factor up to 41 raises ValueError."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n >= _EXACT_BELOW:
        raise ValueError(f"cannot decide whether {n} is a prime: the test is exact only below {_EXACT_BELOW}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p={p!r} is not a prime")


def _vp_int(p: int, x: int) -> int | float:
    """Exponent of p in x, math.inf for x = 0.  Assumes p already prime-checked."""
    if x == 0:
        return math.inf
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def vp(p: int, x: int) -> int | float:
    """Largest k with p**k dividing x, as an int; math.inf for x = 0.

    math.inf orders above every int and absorbs addition, so valuations of
    products with a zero factor compare correctly.
    """
    _check_prime(p)
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return _vp_int(p, x)


def _pool(E: Iterable[int]) -> list[int]:
    """The distinct integers of E in increasing order."""
    pts = list(E)
    for x in pts:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"points must be integers, got {x!r}")
    return sorted(set(pts))


def _pm_walk(pool: list[int], p: int, seq: Sequence[int], m: int) -> list[int] | None:
    """m P-ordering steps over pool, following seq while it lasts.

    Past seq each step takes the smallest integer of minimum valuation.
    `vals` maps every candidate whose difference product with the picks so
    far is nonzero to that product's valuation; the others (the picks
    themselves) are at infinity, so they only tie once every candidate is.
    Returns the picks, or None as soon as an entry of seq does not minimize.
    """
    vals = dict.fromkeys(pool, 0)
    out: list[int] = []
    for i in range(m):
        top = min(vals, key=vals.__getitem__) if vals else pool[0]
        c = seq[i] if i < len(seq) else top
        if vals and vals.get(c) != vals[top]:
            return None
        out.append(c)
        vals = {x: v + _vp_int(p, x - c) for x, v in vals.items() if x != c}
    return out


def pm_ordering(E: Iterable[int], p: int, m: int) -> list[int]:
    """An m-tuple over E, each entry minimizing the difference-product valuation.

    Ties go to the smallest integer value, which keeps the output stable
    under reordering of E.  For m <= |E| the entries come out distinct (a
    repeat would put a zero factor in the product); for larger m the
    selection keeps running and repeats per the same tie-break.
    """
    _check_prime(p)
    pool = _pool(E)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > 0 and not pool:
        raise ValueError("E must be nonempty")
    return _pm_walk(pool, p, (), m)


def is_pm_ordering(E: Iterable[int], p: int, seq: Sequence[int]) -> bool:
    """Whether each entry minimizes the difference-product valuation over E.

    An entry that is not an int (True and 1.0 included) has no valuation, so
    the verdict is False.
    """
    _check_prime(p)
    pool = _pool(E)
    members = set(pool)
    if any(type(c) is not int or c not in members for c in seq):
        return False
    return _pm_walk(pool, p, seq, len(seq)) is not None


def check_equivalence(E: Iterable[int], p: int, seq: Sequence[int]) -> bool:
    """Assert the P-ordering and greedy-permutation verdicts coincide.

    Runs the P-ordering walk against is_greedy_permutation on the zero-weight
    -v_p triple over E and returns the shared verdict; a disagreement is an
    implementation bug, not a data condition, hence the hard error.
    """
    _check_prime(p)
    pool = _pool(E)
    members = set(pool)
    entries = list(seq)
    if len(set(entries)) != len(entries):
        raise ValueError("sequence entries must be distinct")
    if any(type(c) is not int or c not in members for c in entries):
        raise ValueError("sequence entries must lie in E")
    verdict_pm = _pm_walk(pool, p, entries, len(entries)) is not None
    t = constructions.padic_log_triple(pool, p)
    index = {val: i for i, val in enumerate(pool)}
    verdict_greedy = greedy.is_greedy_permutation(t, range(t.n), [index[c] for c in entries])
    if verdict_pm != verdict_greedy:
        raise RuntimeError(
            f"verdicts disagree on p={p}, E={pool}, seq={entries}: "
            f"P-ordering {verdict_pm}, greedy {verdict_greedy}"
        )
    return verdict_pm
