"""Boundary and Eisenstein cohomology of SL3(Z) and GL3(Z), exactly.

Everything is computed in exact arithmetic (integers and fractions), and
every headline quantity has at least two independent computation routes
that the test suite and the verify subcommand pin against each other.
"""

__version__ = "0.1.0"

from .boundary import (
    E1Term,
    GradedProfile,
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
    case_classifier,
    minimal_parabolic_survives,
    survivor_sets,
)
from .rootsystem import (
    HighestWeight,
    Parabolic,
    WeylElement,
    WEYL_GROUP,
    P0,
    P1,
    P2,
    kostant_set,
    restrict_to_levi,
)
from .traces import (
    TorsionClass,
    SL3_TORSION_CLASSES,
    closed_trace,
    gt_trace,
    weyl_det_trace,
)
