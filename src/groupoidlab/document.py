"""JSON interchange for groupoids.

The document schema is strict: exactly the expected fields, string labels
unique across elements, and every referenced label declared.  Decoding never
checks the groupoid axioms — that is the validator's job — but the
[a, b, ab] triples must fill each arrow's row of products, or decoding raises
``core.MalformedTable``, whose malformed listing is made when first read.
decode(encode(G)) == G.
"""

from __future__ import annotations

from typing import Any

from . import core
from .core import FiniteGroupoid

SCHEMA_VERSION = "1"

_FIELDS = ("schema_version", "elements", "units", "src", "rng", "comp", "inv")


class DocumentError(ValueError):
    """A malformed groupoid document (schema violation, unknown label, ...)."""


def encode_groupoid(G: FiniteGroupoid) -> dict:
    """G's document: elements in arrow order, units ascending, and comp
    listed row by row, each arrow a ascending with its products a.b for
    the arrows b into src(a), ascending."""
    lab = G.labels
    return {
        "schema_version": SCHEMA_VERSION,
        "elements": list(lab),
        "units": [lab[x] for x in sorted(G.units)],
        "src": {lab[g]: lab[G.src[g]] for g in G.arrows()},
        "rng": {lab[g]: lab[G.rng[g]] for g in G.arrows()},
        "comp": [[lab[a], lab[b], lab[c]]
                 for a, row in enumerate(G.rows) for b, c in zip(G.into[G.src[a]], row)],
        "inv": {lab[g]: lab[G.inv[g]] for g in G.arrows()},
    }


def _expect(cond: bool, message: str):
    if not cond:
        raise DocumentError(message)


def decode_groupoid(doc: Any) -> FiniteGroupoid:
    """The groupoid a document describes.  Raises ``DocumentError`` for the
    first field, or comp entry in document order, that breaks the schema,
    and ``core.MalformedTable`` when the triples fill no rows."""
    _expect(isinstance(doc, dict), "document must be a JSON object")
    unknown = sorted(set(doc) - set(_FIELDS))
    _expect(not unknown, f"unknown fields: {unknown}")
    missing = sorted(set(_FIELDS) - set(doc))
    _expect(not missing, f"missing fields: {missing}")
    _expect(doc["schema_version"] == SCHEMA_VERSION,
            f"unsupported schema_version {doc['schema_version']!r}")

    elements = doc["elements"]
    _expect(isinstance(elements, list) and all(isinstance(e, str) for e in elements),
            "elements must be a list of strings")
    _expect(len(set(elements)) == len(elements), "element labels must be unique")
    index = {lab: i for i, lab in enumerate(elements)}

    def resolve(labels: list, where: str) -> list[int]:
        # The keys are the declared labels, all str, so one successful lookup
        # per label is the whole check.
        try:
            return [index[lab] for lab in labels]
        except (KeyError, TypeError):   # undeclared, or unhashable
            bad = next(lab for lab in labels if not (isinstance(lab, str) and lab in index))
            raise DocumentError(f"{where}: unknown label {bad!r}") from None

    units = doc["units"]
    _expect(isinstance(units, list), "units must be a list")
    unit_idx = resolve(units, "units")
    _expect(len(set(unit_idx)) == len(unit_idx), "duplicate units")

    def total_map(name: str) -> tuple[int, ...]:
        m = doc[name]
        _expect(isinstance(m, dict), f"{name} must be an object")
        _expect(set(m) == set(elements), f"{name} must be defined on exactly the elements")
        return tuple(resolve([m[lab] for lab in elements], name))

    src = total_map("src")
    rng = total_map("rng")
    inv = total_map("inv")

    comp_entries = doc["comp"]
    _expect(isinstance(comp_entries, list), "comp must be a list of triples")

    def entry_triple(entry) -> list[int]:   # raise directly: _expect formats per entry
        if not (type(entry) is list and len(entry) == 3):
            raise DocumentError(f"comp entries must be [a, b, ab] triples, got {entry!r}")
        return resolve(entry, "comp")

    # The triples resolve in one pass and fill the rows.  Where they do not,
    # one scan raises for the first entry, in document order, that repeats a
    # pair or, where the pass failed, is no triple or names an unknown label;
    # a document with none of these fills no rows, and its MalformedTable is
    # raised.
    n, units, labels = len(elements), frozenset(unit_idx), tuple(elements)
    try:
        if not set(map(type, comp_entries)) <= {list}:   # a str or tuple of three would unpack
            raise TypeError("a comp entry is no list")
        triples = [(index[a], index[b], index[c]) for a, b, c in comp_entries]
    except (KeyError, TypeError, ValueError):
        triples = map(entry_triple, comp_entries)   # raises at the first bad entry
    else:
        try:
            return core._from_products(n, units, src, rng, triples, inv, labels)
        except core.MalformedTable as exc:
            malformed = exc
    pairs = set()
    for (a, b, _), entry in zip(triples, comp_entries):
        if (a, b) in pairs:
            raise DocumentError(f"duplicate comp entry for {entry[:2]!r}")
        pairs.add((a, b))
    raise malformed   # only a pass that resolved gets here: else an entry raised
