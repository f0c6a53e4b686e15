"""Which face contributions survive the action of the finite center.

The -1 in the arithmetic group kills a boundary contribution unless the
coefficient weight is invariant, which is a pure parity condition on the
dot-translated weight.  For the minimal parabolic both fundamental
coordinates of w . lam must be even; for a maximal parabolic the rule reads
only the Levi weight (a, n) and lives in gl2.survives.
"""
from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .gl2 import survives
from .rootsystem import (
    HighestWeight,
    P0,
    P1,
    P2,
    WeylElement,
    kostant_set,
    restrict_to_levi,
)


def minimal_parabolic_survives(w: WeylElement, lam: HighestWeight) -> bool:
    """True iff the P0 face line for w survives: both coordinates even."""
    # the fundamental coordinates of w . lam are c1 - c2 and c2 - c3
    c1, c2, c3 = w.dot(lam)
    return (c1 - c2) % 2 == 0 and (c2 - c3) % 2 == 0


# survivor sets -> their one read-only mapping; the sets depend only on the
# parity case of the weight, so this holds at most nine mappings in practice
_SHARED: dict[tuple, MappingProxyType] = {}


@lru_cache(maxsize=None)
def survivor_sets(lam: HighestWeight) -> MappingProxyType:
    """The surviving Kostant representatives per parabolic, ordered by length.

    Weights with equal survivor sets get the same read-only mapping, so each
    cached weight holds a reference, not a mapping of its own.
    """
    sets = {P0: tuple([w for w in kostant_set(P0) if minimal_parabolic_survives(w, lam)])}
    for p in (P1, P2):
        sets[p] = tuple([w for w in kostant_set(p) if survives(restrict_to_levi(w, lam, p))])
    key = tuple(sets.values())
    return _SHARED.get(key) or _SHARED.setdefault(key, MappingProxyType(sets))


# the case of (m1, m2), indexed by the class m and 2 - m % 2 of each
# coordinate: 0 for zero, 1 for odd, 2 for even > 0
_CASES = (
    (1, 6, 2),
    (7, 9, 8),
    (3, 5, 4),
)


def case_classifier(lam: HighestWeight) -> int:
    """The nine parity/vanishing classes of (m1, m2), numbered 1 through 9.

    1: (0, 0); 2: (0, even>0); 3: (even>0, 0); 4: (even>0, even>0);
    5: (even>0, odd); 6: (0, odd); 7: (odd, 0); 8: (odd, even>0);
    9: (odd, odd).
    """
    m1, m2 = lam.m1, lam.m2
    return _CASES[m1 and 2 - m1 % 2][m2 and 2 - m2 % 2]
