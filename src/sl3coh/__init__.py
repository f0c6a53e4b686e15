"""Boundary and Eisenstein cohomology of SL3(Z) and GL3(Z), exactly.

Everything is computed in exact arithmetic (integers, fractions, and the
small cyclotomic rings Z[zeta_k] for k | 6 or k | 4), and every headline
quantity has at least two independent computation routes that the test
suite and the verify subcommand pin against each other.
"""

__version__ = "0.1.0"

from .boundary import (
    CohomologySummand,
    E1Page,
    E1Term,
    GradedProfile,
    boundary_euler_closed,
    boundary_profile,
    case_profile,
    d1_rank,
    e1_page,
)
from .errors import CrossCheckError
from .eisenstein import (
    cohomology_report,
    eisenstein_case_profile,
    ghost_report,
    gl3_vanishes,
    verify_identities,
)
from .euler import (
    SymbolicCell,
    euler_report,
    euler_values,
    sl3_euler_closed,
    sl3_euler_wall,
    symbolic_cell,
    symbolic_table,
)
from .gl2 import (
    GL2Weight,
    dim_cusp_forms,
    gl2_euler,
    gl2_euler_wall,
    h1_split,
    sl2_euler,
)
from .parity import (
    SurvivorSets,
    case_classifier,
    maximal_parabolic_survives,
    minimal_parabolic_survives,
    survivor_sets,
)
from .rootsystem import (
    EpsilonWeight,
    HighestWeight,
    LeviWeight,
    Parabolic,
    WeylElement,
    WEYL_GROUP,
    P0,
    P1,
    P2,
    kostant_set,
    restrict_to_levi,
    weyl_element,
)
from .traces import (
    CyclotomicInt,
    TorsionClass,
    SL3_TORSION_CLASSES,
    closed_trace,
    gt_character,
    gt_trace,
    weyl_det_trace,
)
