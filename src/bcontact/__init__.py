"""Dividing-set combinatorics for b-contact structures on (S3, S2) and (S3, T2).

The pipeline: region graphs encode isotopy classes of cooriented
separating curves on the critical surface; the enumerator lists all
admissible classes up to isomorphism; exact arithmetic turns each class
into the classification of b-contact structures inducing it, including
the tight count on the solid torus via negative continued fractions.
"""

from .admissibility import Verdict, euler_pairing, is_admissible, is_tight_candidate
from .classify import (
    ClassificationRecord,
    InadmissibleError,
    LeafCensus,
    RegimeDescriptor,
    TableClass,
    classify,
    leaf_census,
    table_classes,
)
from .counting import (
    ContinuedFractionExpansion,
    TightCountResult,
    catalan,
    expansion_products,
    negative_continued_fraction,
    tight_count_solid_torus,
)
from .enumeration import (
    ResourceLimitError,
    enum_equicolored_trees,
    enum_torus_classes,
    enum_torus_graphs,
    graph_slopes,
)
from .formats import (
    ParseError,
    export_dot,
    parse_dividing_set,
    serialize_class_text,
)
from .region_graph import (
    InvalidRegionGraphError,
    RegionGraph,
    RegionVertex,
    Violation,
    canonical_code,
    validate,
)
from .surfaces import (
    S3_S2,
    S3_T2,
    DividingSetClass,
    Surface,
    check_embeddable,
    region_euler,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationRecord",
    "ContinuedFractionExpansion",
    "DividingSetClass",
    "InadmissibleError",
    "InvalidRegionGraphError",
    "LeafCensus",
    "ParseError",
    "RegimeDescriptor",
    "RegionGraph",
    "RegionVertex",
    "ResourceLimitError",
    "S3_S2",
    "S3_T2",
    "Surface",
    "TableClass",
    "TightCountResult",
    "Verdict",
    "Violation",
    "canonical_code",
    "catalan",
    "check_embeddable",
    "classify",
    "enum_equicolored_trees",
    "enum_torus_classes",
    "enum_torus_graphs",
    "euler_pairing",
    "expansion_products",
    "export_dot",
    "graph_slopes",
    "is_admissible",
    "is_tight_candidate",
    "leaf_census",
    "negative_continued_fraction",
    "parse_dividing_set",
    "region_euler",
    "serialize_class_text",
    "table_classes",
    "tight_count_solid_torus",
    "validate",
    "__version__",
]
