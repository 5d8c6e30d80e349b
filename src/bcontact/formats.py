"""The input formats of a dividing-set class, and their parsers.

The line format is one item per line with ``#`` comments:

    surface sphere|torus
    v <id> <+|-> <genus>
    e <id1> <id2>
    slope <p> <q>

The JSON form mirrors it: ``{"surface": ..., "vertices": [{"id", "sign",
"genus"}, ...], "edges": [[i, j], ...], "slope": [p, q] | null}``; any
other key, at the top or in a vertex, is a syntax error, as an unknown
directive is in the text form.  So is a second ``surface`` or ``slope``
line, or a key that an object repeats: input that says a thing twice is
not read as its last word.  An error line echoes a token or value as a
broken graph invariant echoes an id: at most ``region_graph._ECHO``
characters of it, and then ``...`` (``region_graph._echo``).
A one-class answer is ``json.dumps`` of ``class_dict``; the writers of a
class's text, its DOT export and the enumerated listings are in
``listings``, and the classification table's columns and writer
(``classify.write_table``) are in ``classify``, which makes the table.
``render_table_csv`` is the table as one string, for library callers.

A parsed class is a ``DividingSetClass`` of a ``RegionGraph``, each
checked where it is made (graph invariants, then embeddability), so it
is always usable downstream.  ``parse_dividing_set`` is the reading
side's entry: each line or object is checked for syntax, and a
``ParseError`` raised, before the graph is made.
"""

from __future__ import annotations

import io

from .region_graph import _ECHO, RegionGraph, _echo
from .surfaces import DividingSetClass, Surface

# TableClass (classify) names a type in annotations only, which are never
# evaluated; json, which only JSON input needs, is imported where it is
# used.


class ParseError(ValueError):
    """Syntax error with the line and token that caused it."""

    def __init__(self, message: str, line: int | None = None, token: str | None = None):
        location = f"line {line}" if line is not None else "input"
        if token is None:
            suffix = ""
        elif len(token) <= _ECHO:
            suffix = f" (token {token!r})"
        else:
            suffix = f" (token {token[:_ECHO]!r}...)"
        super().__init__(f"{location}: {message}{suffix}")
        self.line = line
        self.token = token


def class_dict(d: DividingSetClass) -> dict:
    """A class as the JSON object the module docstring gives, for
    ``json.dumps``, which writes its tuples as arrays."""
    vertices = [v._asdict() for v in d.graph.vertices]
    return {"surface": d.surface.value, "vertices": vertices, "edges": d.graph.edges,
            "slope": d.slope}


def parse_dividing_set(text: str) -> DividingSetClass:
    """Parse a dividing-set class from text or JSON input.

    Raises ``ParseError`` for syntax problems (with line and token) and
    ``InvalidRegionGraphError`` naming the violated invariant otherwise.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def _parse_int(raw: str, line: int, what: str) -> int:
    # Only ASCII -?[0-9]+: int() alone would also take "1_0", "+1" and
    # non-ASCII digits.
    digits = raw[1:] if raw.startswith("-") else raw
    if digits.isascii() and digits.isdigit():
        try:
            return int(raw)
        except ValueError:  # past the int-to-str digit limit
            pass
    raise ParseError(f"expected an integer {what}", line, raw)


def _parse_items(text: str) -> tuple[
    Surface | None, list[tuple[int, int, int]], list[tuple[int, int]], tuple[int, int] | None
]:
    """The surface, the vertices as (id, sign, genus), the edges and the
    slope of the line format, each line checked for syntax alone."""
    surface: Surface | None = None
    vertices: list[tuple[int, int, int]] = []
    edges: list[tuple[int, int]] = []
    slope: tuple[int, int] | None = None
    # The line of the surface and of the slope, each given at most once.
    given: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind in ("surface", "slope"):
            if kind in given:
                raise ParseError(f"second {kind} line (the first is line {given[kind]})", lineno)
            given[kind] = lineno
        if kind == "surface":
            if len(fields) != 2:
                raise ParseError("surface line takes one value", lineno)
            try:
                surface = Surface(fields[1])
            except ValueError:
                raise ParseError("surface must be sphere or torus", lineno, fields[1]) from None
        elif kind == "v":
            if len(fields) != 4:
                raise ParseError("vertex line is 'v <id> <+|-> <genus>'", lineno)
            vid = _parse_int(fields[1], lineno, "vertex id")
            if fields[2] not in ("+", "-"):
                raise ParseError("vertex sign must be + or -", lineno, fields[2])
            genus = _parse_int(fields[3], lineno, "genus")
            vertices.append((vid, 1 if fields[2] == "+" else -1, genus))
        elif kind == "e":
            if len(fields) != 3:
                raise ParseError("edge line is 'e <id1> <id2>'", lineno)
            edges.append(
                (
                    _parse_int(fields[1], lineno, "vertex id"),
                    _parse_int(fields[2], lineno, "vertex id"),
                )
            )
        elif kind == "slope":
            if len(fields) != 3:
                raise ParseError("slope line is 'slope <p> <q>'", lineno)
            slope = (
                _parse_int(fields[1], lineno, "slope numerator"),
                _parse_int(fields[2], lineno, "slope denominator"),
            )
        else:
            raise ParseError("unknown directive", lineno, kind)

    return surface, vertices, edges, slope


def _parse_text(text: str) -> DividingSetClass:
    surface, vertices, edges, slope = _parse_items(text)
    if surface is None:
        raise ParseError("missing 'surface sphere|torus' header")
    return DividingSetClass(surface, RegionGraph(vertices, edges), slope)


_CLASS_KEYS = frozenset({"surface", "vertices", "edges", "slope"})
_VERTEX_KEYS = frozenset({"id", "sign", "genus"})


def _parse_json(text: str) -> DividingSetClass:
    import json

    # Past its leading blanks the text is "{...": an object or no JSON.
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno) from None
    except ParseError:
        raise
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError:  # an integer past the int-to-str digit limit
        raise ParseError("JSON integer has too many digits") from None
    _reject_unknown_keys(data, _CLASS_KEYS, "class")
    try:
        surface = _json_surface(data["surface"])
        vertices = tuple(_json_vertex(v) for v in _json_list(data["vertices"], "vertices"))
        edges = tuple(_json_pair(e, "edge") for e in _json_list(data["edges"], "edges"))
        raw_slope = data.get("slope")
        slope = None if raw_slope is None else _json_pair(raw_slope, "slope")
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"malformed JSON class: missing key {exc}") from None
    except ValueError as exc:
        raise ParseError(f"malformed JSON class: {exc}") from None
    return DividingSetClass(surface, RegionGraph(vertices, edges), slope)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict, unless it repeats a key, which ``json`` alone
    would keep the last value of."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError("repeated key in JSON object", token=key)
            seen.add(key)
    return obj


def _reject_unknown_keys(obj: dict, known: frozenset[str], what: str) -> None:
    # The JSON counterpart of the text form's unknown directive.
    unknown = sorted(obj.keys() - known)
    if unknown:
        raise ParseError(f"unknown key in JSON {what}", token=unknown[0])


def _json_surface(value) -> Surface:
    try:
        return Surface(value)
    except ValueError:
        raise ValueError(f"{_echo(repr(value))} is not a valid Surface") from None


def _json_vertex(v) -> tuple[int, int, int]:
    if not isinstance(v, dict):
        raise ValueError(f"vertex must be an object, got {_json_echo(v)}")
    _reject_unknown_keys(v, _VERTEX_KEYS, "vertex")
    return (
        _json_int(v["id"], "vertex id"),
        _json_int(v["sign"], "sign"),
        _json_int(v.get("genus", 0), "genus"),
    )


def _json_echo(value) -> str:
    import json

    return _echo(json.dumps(value))


def _json_int(value, what: str) -> int:
    # bool is an int subclass, but true/false is not a number.
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {_json_echo(value)}")


def _json_list(value, what: str) -> list:
    if isinstance(value, list):
        return value
    raise ValueError(f"{what} must be a list, got {_json_echo(value)}")


def _json_pair(value, what: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{what} must be a list of two integers, got {_json_echo(value)}")
    return _json_int(value[0], what), _json_int(value[1], what)


def render_table_csv(classes: list[TableClass]) -> str:
    """The classification table as CSV, header first, from ``table_classes``,
    as one string (``classify.write_table``)."""
    from .classify import write_table

    out = io.StringIO()
    write_table(out, classes, "csv")
    return out.getvalue()
