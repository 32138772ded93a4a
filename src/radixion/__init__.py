"""Digit expansions and carry statistics in rings of algebraic integers.

A number system is a pair (q, D): an expanding algebraic integer base q
given by its monic minimal polynomial, and a complete residue digit set
D in Z[q].  The package decides finiteness of expansions, measures
carry propagation (automata, spectral constants, censuses counted on
the carry automaton), rasterizes fundamental tiles, and runs Weyl-sum
equidistribution experiments over length-bounded expansion sets.

Each export is imported from its module on first use (PEP 562), so
importing the package loads no module, and numpy is loaded only with
the modules that build arrays, bulk and tile (and by algebra, on the
first use of the embeddings).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algebra": ("Distortion", "EmbeddingSet", "MinimalPolynomial", "distortion", "norm",
                "power_sums", "trace_pow"),
    "analysis": ("FourierDecayReport", "LinearForm", "PrimeVerdict", "WeylRow",
                 "equidist_condition", "fourier_decay", "weyl_sum"),
    "carry": ("CarryAutomaton", "CarryConstantReport", "CnsCollapsedGraph", "CnsSubsetGraph",
              "build_automaton", "carry_census", "carry_constant", "cns_collapsed",
              "cns_subset_graph", "gaussian_family"),
    "errors": ("CapExceeded", "ConvergenceError", "CycleDetected", "DomainError",
               "RadixionError", "UsageError"),
    "numeration": ("DigitStatistic", "Expansion", "FnsVerdict", "NumberSystem", "digit_sum",
                   "enumerate_N", "evaluate", "expand", "is_fns", "pair_count"),
    "tile": ("BoxDimReport", "Raster", "boundary_boxdim", "cloud_chunks", "cover_fraction",
             "tile_radii", "tile_rasters"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = ("algebra", "analysis", "bulk", "caps", "carry", "errors", "numeration", "tile")

__all__ = sorted([*_HOME, *_MODULES])


def __getattr__(name):
    if name not in __all__:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("." + _HOME.get(name, name), __name__)
    return module if name in _MODULES else getattr(module, name)
