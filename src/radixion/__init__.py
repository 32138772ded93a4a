"""Digit expansions and carry statistics in rings of algebraic integers.

A number system is a pair (q, D): an expanding algebraic integer base q
given by its monic minimal polynomial, and a complete residue digit set
D in Z[q].  The package decides finiteness of expansions, measures
carry propagation (automata, spectral constants, censuses counted on
the carry automaton), rasterizes fundamental tiles, and runs Weyl-sum
equidistribution experiments over length-bounded expansion sets.
"""

from .algebra import (
    Distortion,
    EmbeddingSet,
    MinimalPolynomial,
    distortion,
    norm,
    power_sums,
    trace_matrix,
    trace_pow,
)
from .analysis import (
    FourierDecayReport,
    LinearForm,
    PrimeVerdict,
    SumDigitConstants,
    WeylRow,
    equidist_condition,
    fourier_decay,
    is_prime_element,
    sumdigit_fourier_constants,
    weyl_sum,
)
from .carry import (
    CarryAutomaton,
    CarryConstantReport,
    CnsCollapsedGraph,
    CnsSubsetGraph,
    build_automaton,
    carry_census,
    carry_constant,
    cns_collapsed,
    cns_subset_graph,
    gaussian_family,
)
from .errors import (
    CapExceeded,
    ConvergenceError,
    CycleDetected,
    DomainError,
    RadixionError,
    UsageError,
)
from .numeration import (
    Expansion,
    FnsVerdict,
    NumberSystem,
    digit_slice,
    enumerate_N,
    evaluate,
    expand,
    is_fns,
    rudin_shapiro,
    sum_of_digits,
)
from .tile import (
    BoxDimReport,
    Raster,
    boundary_boxdim,
    cloud_chunks,
    cover_fraction,
    tile_radii,
    tile_rasters,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
