"""Reading and writing complexes as canonical JSON documents.

A complex file is a single JSON object with a "facets" list of vertex-label
lists (labels are strings or non-negative integers), plus optional "name",
"coloring" (label -> color mapping) and "metadata" entries.  Emitted files
are canonical: facets and vertices sorted, fixed key order, two-space
indentation, so parse(emit(parse(f))) is the identity.
"""

from __future__ import annotations

import json

from .complexes import Complex, MalformedFaceError, Record, build
from .properties import Coloring, ColoringError


class ComplexFileError(Exception):
    """Malformed complex file; carries position info when available."""


class ComplexFile(Record):
    __slots__ = ("complex", "coloring", "name", "metadata")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__  # mutable
    __hash__ = None

    def __init__(self, complex: Complex, coloring: Coloring | None = None,
                 name: str | None = None, metadata: dict | None = None):
        super().__init__(complex, coloring, name, {} if metadata is None else metadata)


def _check_label(raw, where: str):
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ComplexFileError(f"{where}: label {raw!r} is not a string or integer")
    if isinstance(raw, int) and raw < 0:
        raise ComplexFileError(f"{where}: negative integer label {raw!r}")
    return raw


def _json_object(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key given twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"key {key!r} is given twice in one object")
    return obj


def parse_text(text: str, source: str = "<string>") -> ComplexFile:
    """Parse a complex document from a JSON string."""
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ComplexFileError(
            f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ComplexFileError(f"{source}: JSON nested too deeply") from exc
    except ValueError as exc:
        raise ComplexFileError(f"{source}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ComplexFileError(f"{source}: top level must be an object")
    if "facets" not in doc or not isinstance(doc["facets"], list):
        raise ComplexFileError(f"{source}: missing \"facets\" list")

    facets = []
    for k, raw_face in enumerate(doc["facets"]):
        if not isinstance(raw_face, list):
            raise ComplexFileError(f"{source}: facets[{k}] is not a list")
        facets.append([_check_label(v, f"{source}: facets[{k}]")
                       for v in raw_face])
    try:
        cx = build(facets)
    except MalformedFaceError as exc:
        raise ComplexFileError(f"{source}: {exc}") from exc

    coloring = None
    if doc.get("coloring") is not None:
        raw = doc["coloring"]
        if not isinstance(raw, dict):
            raise ComplexFileError(f"{source}: \"coloring\" must be a mapping")
        vertices = {str(v): v for v in cx.vertices}  # the keys emit writes
        assignment = {}
        for key, color in raw.items():
            vertex = vertices.get(key)
            if vertex is None:
                raise ComplexFileError(
                    f"{source}: coloring names unknown vertex {key!r}")
            if isinstance(color, bool) or not isinstance(color, int) or color < 1:
                raise ComplexFileError(
                    f"{source}: color of {key!r} must be a positive integer")
            assignment[vertex] = color
        d = (cx.dim + 1) if not cx.is_void else 0
        d = max([d] + list(assignment.values()))
        coloring = Coloring(assignment, d)
        try:
            coloring.validate(cx)
        except ColoringError as exc:
            raise ComplexFileError(f"{source}: {exc}") from exc

    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ComplexFileError(f"{source}: \"name\" must be a string")
    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ComplexFileError(f"{source}: \"metadata\" must be an object")
    return ComplexFile(cx, coloring, name, metadata)


def parse(path) -> ComplexFile:
    """Parse a complex document from a file path."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read(), source=str(path))


def coloring_keys(coloring: Coloring) -> dict:
    """The coloring as written to JSON, {str(vertex): color} in vertex
    order.  Raises ComplexFileError if two vertices, such as 3 and "3",
    would be written as the same key, since a reader could not tell them
    apart."""
    out = {}
    labels = {}   # key written -> the vertex it names
    for v, c in coloring.as_sorted_dict().items():
        key = str(v)
        if labels.setdefault(key, v) != v:
            raise ComplexFileError(
                f"coloring: vertices {labels[key]!r} and {v!r} would "
                f"both be written as the key {key!r}")
        out[key] = c
    return out


def emit_text(cf: ComplexFile) -> str:
    """Canonical JSON rendering of a complex document.  Raises
    ComplexFileError if the coloring's keys collide (see
    :func:`coloring_keys`)."""
    doc: dict = {}
    if cf.name is not None:
        doc["name"] = cf.name
    doc["facets"] = [list(f) for f in cf.complex.facets]
    if cf.coloring is not None:
        doc["coloring"] = coloring_keys(cf.coloring)
    if cf.metadata:
        doc["metadata"] = {k: cf.metadata[k] for k in sorted(cf.metadata)}
    return json.dumps(doc, indent=2) + "\n"


def emit(cf: ComplexFile, path) -> None:
    """Write the canonical rendering to a file; a document emit_text
    refuses leaves the file untouched."""
    text = emit_text(cf)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
