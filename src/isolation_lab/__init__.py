"""Exact isolation numbers and certified isolating sets for small graphs.

An F-isolating set of a graph G is a vertex set D such that G - N[D] contains
no member of the family F; the F-isolation number iota(G, F) is the smallest
size of such a set.  This package computes iota exactly for the families that
matter in the connected-graph bounds (connected graphs with >= k edges,
and cycles), runs the constructive induction that certifies the known
sharp upper bounds for k = 2 and k = 3, builds the extremal families that
attain them, and exhaustively verifies everything over all small connected
graphs.
"""

from .graphs import (
    Graph,
    Graph6Error,
    bits,
    closed_neighborhood,
    complete_graph,
    cycle_graph,
    graph6_decode,
    graph6_encode,
    induced_subgraph,
    is_connected,
    iter_components,
    leaves,
    mask_of,
    named_graph,
    path_graph,
    star_graph,
)
from .families import (
    CYCLES,
    FamilySpec,
    IsolationResult,
    edge_family,
    exact_iota,
    is_isolating,
    piece_witness,
)
from .bounds import VerificationRecord, bad_piece, check_bound, classify_exception
from .constructions import build_B, pattern_isolating_set
from .prover import (
    Certificate,
    InductionContext,
    InternalConsistencyError,
    TraceEntry,
    isolate_k2,
    isolate_k3,
    residual_set_for_bad,
)
from .enumeration import connected_graphs, read_graph6_stream

__all__ = [name for name in dir() if not name.startswith("_")]
