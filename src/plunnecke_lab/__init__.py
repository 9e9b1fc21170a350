"""Exact tools for sumset-growth inequalities.

Layered measure graphs with weight-preserving labelled edges, their
magnification ratios and minimum-weight cutsets, finite abelian group
actions with dynamical magnification ratios, and Banach densities of fully
periodic subsets of Z^d.  All arithmetic is exact rational.
"""

__version__ = "0.1.0"

from .commutativity import (CommutativityVerdict, is_commutative, matching_witnesses,
                            verify_orbit_commutes)
from .density import (PeriodicSet, banach_density, correspondence_system,
                      iterate_sumset, normalize, periodic_sumset,
                      verify_correspondence, verify_density_plunnecke,
                      verify_density_summands, window_scan)
from .dynamics import (FinAbGroup, FiniteAction, GroupSet, c, c_delta,
                       heavy_subset, iterate, move_set, orbit_graph,
                       product_action, product_set,
                       restricted_orbit_subgraph, translation_action,
                       validate_action, verify_different_summands,
                       verify_dyn_plunnecke, verify_heavy_subset,
                       verify_multiplicativity, verify_restricted_plunnecke)
from .errors import HypothesisError, InputError
from .graphcore import (LayeredMeasureGraph, channel, dual, flow, image,
                        induced_subgraph, iterated_image, truncate, validate, verify_flow_duality)
from .magnification import (CutsetReport, MagnificationResult, cut_weight,
                            cutset_push, is_cutset, magnification_bruteforce,
                            magnification_mincut, min_weight_cutset,
                            push_penalty, verify_bottom_layer_minimal,
                            verify_graph_plunnecke)
from .rational import format_rational, parse_rational
from .reports import VerificationReport

__all__ = [
    "CommutativityVerdict", "CutsetReport", "FinAbGroup", "FiniteAction",
    "GroupSet", "HypothesisError", "InputError", "LayeredMeasureGraph",
    "MagnificationResult", "PeriodicSet", "VerificationReport",
    "banach_density", "c", "c_delta", "channel",
    "correspondence_system", "cut_weight", "cutset_push", "dual", "flow",
    "format_rational", "heavy_subset", "image", "induced_subgraph",
    "is_commutative", "is_cutset", "iterate",
    "iterate_sumset", "iterated_image", "magnification_bruteforce",
    "magnification_mincut", "matching_witnesses", "min_weight_cutset",
    "move_set", "normalize",
    "orbit_graph", "parse_rational", "periodic_sumset", "product_action",
    "product_set", "push_penalty", "restricted_orbit_subgraph",
    "translation_action", "truncate", "validate", "validate_action",
    "verify_bottom_layer_minimal", "verify_correspondence",
    "verify_density_plunnecke", "verify_density_summands",
    "verify_different_summands", "verify_dyn_plunnecke", "verify_flow_duality",
    "verify_graph_plunnecke", "verify_heavy_subset", "verify_multiplicativity",
    "verify_orbit_commutes", "verify_restricted_plunnecke", "window_scan",
]
