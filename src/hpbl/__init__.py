"""hp finite elements on geometric boundary-layer meshes.

Solves -eps^2 div(A grad u) + c u = f with homogeneous Dirichlet data on
polygons, for singular perturbation parameters eps down to 1e-4 and
beyond, using tensorized Gauss-Lobatto elements of degree q on meshes
that refine geometrically into boundary layers and corners.  The error
in the eps-weighted energy norm decays exponentially in q uniformly in
eps once the mesh carries enough geometric layers.
"""

from .gausslobatto import gauss_lobatto_rule
from .patches import PatchKind, PatchParams, build_pattern

__version__ = "0.1.0"
