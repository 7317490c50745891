"""Exact exterior calculus on contact charts and conformally symplectic quotients.

The package builds, over exact rational scalars, the complex of a contact
chart obtained from the two-step filtered de Rham complex, pushes it down
to the quotient by the transversal field, constructs the intrinsic
complex of the quotient's conformally symplectic structure, and verifies
the expected cohomological behaviour (complex property, primitive
decompositions, the long exact sequence against de Rham cohomology) on
finite weight- or mode-truncations.
"""

from .coefficients import (
    PolyCoefficient,
    Rational,
    Ring,
    TrigCoefficient,
    poly_ring,
    trig_ring,
)
from .forms import (
    Chart,
    DifferentialForm,
    PolyVectorField,
    affine_cs_chart,
    basis_form,
    exterior_derivative,
    function_form,
    interior_product,
    lie_derivative,
    torus_cs_chart,
    wedge,
    zero_form,
)
from .contact import (
    ContactChart,
    HForm,
    contactify,
    h_cohomology_basis,
    levi_form,
    lift_construction,
    partial_map,
    standard_contact_chart,
)
from .lefschetz import (
    CsChart,
    TwistedForm,
    full_decomposition,
    lefschetz_L,
    lefschetz_Lambda,
    primitive_projection,
    standard_cs_chart,
)
from .rumin import (
    operator_order,
    rumin_complex,
)
from .descent import (
    ChartPair,
    descend_rumin,
    iso_down,
    iso_up,
    nabla_twisted_d,
    ss_fallback,
    standard_pair,
    total_differential,
)
from .cohomology import (
    CohomologyReport,
    OperatorMatrix,
    Truncation,
    cohomology_dims,
    les_check,
    mode_truncation,
    rs_cohomology,
    short_exact_splice,
    weight_truncation,
)

__version__ = "0.1.0"
