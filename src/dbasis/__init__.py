"""Implication bases of binary tables via hypergraph dualization."""

from .basis import (BasisResult, BasisStream, EmptySectorError, Implication, RuleQuery,
                    binary_part, compute_basis, evaluation_order,
                    expand_to_original, leave_k_out_rules, measure,
                    ordered_closure, refine_to_d_basis, sector_hypergraph)
from .context import (ArrowTable, BinaryContext, OracleSizeError, ParseError,
                      ReductionRecord, compute_arrows, parse_context,
                      parse_dense_csv, parse_fimi, reduce_context)
from .dualization import (Hypergraph, dualize, dualize_streaming,
                          format_edge_list, minimize, parse_edge_list)
from .lattice import (DRelation, PartialOrder, attribute_order,
                      compute_d_relation, object_order, render_arrow_table,
                      up_objects)

__all__ = [
    "ArrowTable",
    "BasisResult",
    "BasisStream",
    "BinaryContext",
    "DRelation",
    "EmptySectorError",
    "Hypergraph",
    "Implication",
    "OracleSizeError",
    "ParseError",
    "PartialOrder",
    "ReductionRecord",
    "RuleQuery",
    "attribute_order",
    "binary_part",
    "compute_arrows",
    "compute_basis",
    "compute_d_relation",
    "dualize",
    "dualize_streaming",
    "evaluation_order",
    "expand_to_original",
    "format_edge_list",
    "leave_k_out_rules",
    "measure",
    "minimize",
    "object_order",
    "ordered_closure",
    "parse_context",
    "parse_dense_csv",
    "parse_edge_list",
    "parse_fimi",
    "reduce_context",
    "refine_to_d_basis",
    "render_arrow_table",
    "sector_hypergraph",
    "up_objects",
]

__version__ = "0.1.0"
