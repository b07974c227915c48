"""Exact-arithmetic constructions, region counts, and verification
oracles for straight-line embeddings of cycle graphs.

Each public name is imported from its module on first use (PEP 562), so
`import cycleregions` loads no layer until one of its names is read.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it.
_EXPORTS = {
    "Arrangement": "arrangement",
    "ConstructionCheckFailed": "formulas",
    "CycleEmbedding": "embedding",
    "CyclicPermutation": "search",
    "DegeneracyReport": "degeneracy",
    "DegenerateInput": "formulas",
    "Intersection": "geometry",
    "IntersectionKind": "geometry",
    "InvalidN": "formulas",
    "NTooLarge": "formulas",
    "OracleResult": "search",
    "Orientation": "geometry",
    "PerturbationFailed": "formulas",
    "Point": "geometry",
    "PointNotOnSegment": "geometry",
    "RenderOptions": "render",
    "Segment": "geometry",
    "build_arrangement": "arrangement",
    "construct": "embedding",
    "construct_even": "embedding",
    "construct_odd": "embedding",
    "cross": "geometry",
    "crossing_count_convex": "search",
    "f_max": "formulas",
    "format_embedding": "embedding",
    "load_embedding": "embedding",
    "oracle_max_regions_convex": "search",
    "orientation": "geometry",
    "parse_embedding": "embedding",
    "perturb": "embedding",
    "point_on_segment": "geometry",
    "predicted_edges": "formulas",
    "predicted_vertices": "formulas",
    "random_search": "search",
    "region_count_euler": "arrangement",
    "region_count_traversal": "arrangement",
    "regular_polygon_points": "embedding",
    "save_embedding": "embedding",
    "segment_intersection": "geometry",
    "sort_points_along": "geometry",
    "splitter_analysis": "arrangement",
    "splitter_bound_check": "probes",
    "to_svg": "render",
    "validate_general_position": "embedding",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
