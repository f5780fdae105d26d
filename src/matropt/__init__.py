"""Exact-arithmetic toolkit for matroid polytopes.

Matroids behind rank oracles, exact lattice-point counting and Ehrhart
polynomials through rational generating functions, closed forms for uniform
matroids, unimodular-triangulation checks, and seeded multi-criteria search
heuristics over the base-exchange graph, all validated against brute-force
oracles.
"""

from .errors import (
    CapError,
    DimensionError,
    InternalInconsistencyError,
    MatroptError,
    ParseError,
)
from .genfun import (
    dilation_polynomial,
    ehrhart_polynomial,
)
from .heuristics import (
    boundary_pareto_search,
    boundary_start,
    fiber_bfs,
    fiber_bfs_driver,
    local_search,
    pivot_test,
    projected_boundary,
    tabu_search,
)
from .incidence import (
    NOT_A_2FACE,
    SQUARE_2FACE,
    classify_square_2face,
)
from .io import load_matroid, load_weights, parse_matroid, parse_weights
from .matroid import (
    Matroid,
    automorphism_generators,
    graphic_matroid,
    greedy_max_basis,
    incidence_vector,
    random_basis,
    uniform_matroid,
    vector_matroid,
)
from .multicriteria import (
    Custom,
    Linear,
    MinMax,
    QuarticDistance,
    SquaredDistance,
    WeightMatrix,
    bounding_box,
    pareto_filter,
    project,
)
from .oracles import (
    dilation_lattice_counts,
    enumerate_bases,
    exact_projected_set,
    laplacian_tree_count,
    planar_convex_hull,
    polytope_dimension,
    spanning_trees,
)
from .triangulate import placing_triangulation, tangent_cone, tree_cells
from .uniform import (
    bounded_composition_counts,
    ehrhart_uniform,
    hstar_from_counts,
    hstar_uniform,
)

from types import ModuleType as _ModuleType

# The names imported above; the submodules they come from stay out, so that
# `from matropt import *` rebinds no module name such as `io`.
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
