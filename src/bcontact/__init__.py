"""Dividing-set combinatorics for b-contact structures on (S3, S2) and (S3, T2).

The pipeline: region graphs encode isotopy classes of cooriented
separating curves on the critical surface; the enumerator lists all
admissible classes up to isomorphism; exact arithmetic turns each class
into the classification of b-contact structures inducing it, including
the tight count on the solid torus via negative continued fractions.

The package namespace is lazy: ``import bcontact`` loads none of its
modules, and each public name loads its home module on first use
(PEP 562), so a caller pays only for the layers it touches.  The name
``classify`` is the function, under any import order, although a
submodule of that name exists.
"""

import importlib
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "admissibility": ("Verdict", "euler_pairing", "is_admissible", "is_tight_candidate"),
    "classify": (
        "ClassificationRecord",
        "InadmissibleError",
        "LeafCensus",
        "RegimeDescriptor",
        "TableClass",
        "classify",
        "leaf_census",
        "table_classes",
    ),
    "counting": (
        "ContinuedFractionExpansion",
        "TightCountResult",
        "catalan",
        "expansion_products",
        "negative_continued_fraction",
        "tight_count_solid_torus",
    ),
    "enumeration": ("ResourceLimitError", "enum_equicolored_trees", "enum_torus_classes"),
    "formats": ("ParseError", "parse_dividing_set"),
    "listings": ("export_dot", "serialize_class_text"),
    "region_graph": (
        "InvalidRegionGraphError",
        "RegionGraph",
        "RegionVertex",
        "Violation",
        "canonical_code",
        "validate",
    ),
    "surfaces": (
        "S3_S2",
        "S3_T2",
        "DividingSetClass",
        "Surface",
        "check_embeddable",
        "region_euler",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Namespace(type(sys)):
    def __setattr__(self, name, value):
        # Loading a submodule binds it on the package under its own name;
        # where a public name has that name (``classify``), the name wins.
        if _HOME.get(name) == name and value is sys.modules.get(f"{__name__}.{name}"):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Namespace
