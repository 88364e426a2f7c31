"""The JSON interchange format: strict decoding, faithful round-trips."""

import json

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidlab import checks, core, document, generators


def _doc(G=None):
    return document.encode_groupoid(G if G is not None else generators.klein_cross())


class TestRoundTrip:
    def test_named_models_round_trip_exactly(self, klein_cross, s3, s3_a3, pair2):
        for G in (klein_cross, s3, s3_a3, pair2, generators.trivial_groupoid(2)):
            assert document.decode_groupoid(document.encode_groupoid(G)) == G

    def test_corpus_round_trips(self, corpus40):
        for _, G in corpus40[:15]:
            assert document.decode_groupoid(document.encode_groupoid(G)) == G

    def test_round_trip_survives_json_serialization(self, s3_a3):
        text = json.dumps(document.encode_groupoid(s3_a3))
        assert document.decode_groupoid(json.loads(text)) == s3_a3

    def test_encoding_is_deterministic(self, klein_cross):
        a = json.dumps(document.encode_groupoid(klein_cross))
        b = json.dumps(document.encode_groupoid(klein_cross))
        assert a == b


class TestStrictDecoding:
    def test_rejects_non_object(self):
        with pytest.raises(document.DocumentError):
            document.decode_groupoid([1, 2, 3])

    def test_rejects_unknown_field(self):
        doc = _doc()
        doc["extra"] = True
        with pytest.raises(document.DocumentError, match="unknown fields"):
            document.decode_groupoid(doc)

    def test_rejects_missing_field(self):
        doc = _doc()
        del doc["inv"]
        with pytest.raises(document.DocumentError, match="missing fields"):
            document.decode_groupoid(doc)

    def test_rejects_wrong_schema_version(self):
        doc = _doc()
        doc["schema_version"] = "2"
        with pytest.raises(document.DocumentError, match="schema_version"):
            document.decode_groupoid(doc)

    def test_rejects_duplicate_labels(self):
        doc = _doc()
        doc["elements"][1] = doc["elements"][0]
        with pytest.raises(document.DocumentError, match="unique"):
            document.decode_groupoid(doc)

    def test_rejects_unknown_label_in_units(self):
        doc = _doc()
        doc["units"].append("ghost")
        with pytest.raises(document.DocumentError, match="unknown label"):
            document.decode_groupoid(doc)

    def test_rejects_partial_src_map(self):
        doc = _doc()
        del doc["src"][doc["elements"][0]]
        with pytest.raises(document.DocumentError, match="exactly the elements"):
            document.decode_groupoid(doc)

    def test_rejects_extra_src_key(self):
        doc = _doc()
        doc["src"]["ghost"] = doc["elements"][0]
        with pytest.raises(document.DocumentError, match="exactly the elements"):
            document.decode_groupoid(doc)

    def test_rejects_malformed_comp_entry(self):
        doc = _doc()
        doc["comp"][0] = doc["comp"][0][:2]
        with pytest.raises(document.DocumentError, match="triples"):
            document.decode_groupoid(doc)
        # three labels that are not a list are no triple either, even where
        # they would fill the one slot of a one-arrow table
        point = {"schema_version": "1", "elements": ["x"], "units": ["x"], "src": {"x": "x"},
                 "rng": {"x": "x"}, "comp": [["x", "x", "x"]], "inv": {"x": "x"}}
        assert document.decode_groupoid(point).rows == ((0,),)
        for entry in ("xxx", ("x", "x", "x"), {"x": 1, "y": 2, "z": 3}):
            with pytest.raises(document.DocumentError, match="triples"):
                document.decode_groupoid({**point, "comp": [entry]})

    def test_rejects_duplicate_comp_pair(self):
        doc = _doc()
        doc["comp"].append(list(doc["comp"][0]))
        with pytest.raises(document.DocumentError, match="duplicate comp"):
            document.decode_groupoid(doc)
        # in place of another pair, as many triples as products
        doc = _doc()
        doc["comp"][1] = list(doc["comp"][0])
        with pytest.raises(document.DocumentError, match="duplicate comp"):
            document.decode_groupoid(doc)

    def test_comp_entry_errors_are_reported_in_entry_order(self):
        # the first bad entry in document order is the one named: a repeated
        # pair before a short entry, an unknown label or a string is reported
        # as the repeat, and any of them before a repeated pair as itself
        first = _doc()["comp"][0]
        repeat = f"duplicate comp entry for {first[:2]!r}"
        bad_entries = [
            (first[:2], f"comp entries must be [a, b, ab] triples, got {first[:2]!r}"),
            ([first[0], "ghost", first[2]], "comp: unknown label 'ghost'"),
            ("abc", "comp entries must be [a, b, ab] triples, got 'abc'"),
        ]
        for bad, message in bad_entries:
            for (i, j), expected in (((3, 5), repeat), ((5, 3), message)):
                doc = _doc()
                doc["comp"][i], doc["comp"][j] = list(first), bad
                with pytest.raises(document.DocumentError) as err:
                    document.decode_groupoid(doc)
                assert str(err.value) == expected, (bad, i)

    def test_a_large_document_names_its_last_bad_entry(self):
        # on pair:64 the scan finds a repeat among the resolved triples, in
        # the place of the last entry or after it, and walks the entries
        # only for a short entry or an unknown label
        doc = _doc(generators.pair_groupoid(64))
        comp = doc["comp"]
        first, last = comp[0], comp[-1]
        repeat = f"duplicate comp entry for {first[:2]!r}"
        for bad, message in (
                (list(first), repeat),
                (last[:2], f"comp entries must be [a, b, ab] triples, got {last[:2]!r}"),
                ([last[0], "ghost", last[2]], "comp: unknown label 'ghost'")):
            comp[-1] = bad
            with pytest.raises(document.DocumentError) as err:
                document.decode_groupoid(doc)
            assert str(err.value) == message, bad
        comp[-1] = last
        comp.append(list(first))
        with pytest.raises(document.DocumentError) as err:
            document.decode_groupoid(doc)
        assert str(err.value) == repeat

    def test_decoding_skips_axiom_checks(self):
        # a structurally well-formed document that is not a groupoid decodes
        # fine; the validator is the place that rejects it.  One whose
        # triples fill no rows is refused with the malformed listing.
        doc = {
            "schema_version": "1",
            "elements": ["u", "g"],
            "units": ["u"],
            "src": {"u": "u", "g": "u"},
            "rng": {"u": "u", "g": "u"},
            "comp": [["u", "u", "u"], ["u", "g", "g"], ["g", "u", "g"], ["g", "g", "g"]],
            "inv": {"u": "u", "g": "g"},   # g.g = g, not u
        }
        G = document.decode_groupoid(doc)
        assert core.validate(G) != []
        doc["comp"] = doc["comp"][:1]   # (u,g), (g,u), (g,g) all missing
        with pytest.raises(core.MalformedTable) as err:
            document.decode_groupoid(doc)
        assert [v.witness for v in err.value.violations] == [(0, 1), (1, 0), (1, 1)]



# A bad label in each place a document names one, and the message that
# names it: the same with or without the one-lookup path in front.
_BAD_LABELS = [
    (3, "unknown label 3"),
    (None, "unknown label None"),
    (True, "unknown label True"),
    (["x"], "unknown label ['x']"),
    ({"k": 1}, "unknown label {'k': 1}"),
    ("ghost", "unknown label 'ghost'"),
]


def _put_units(doc, bad):
    doc["units"].append(bad)


def _put_map(name):
    def put(doc, bad):
        doc[name][doc["elements"][2]] = bad
    return put


def _put_comp(pos):
    def put(doc, bad):
        doc["comp"][4][pos] = bad
    return put


@pytest.mark.parametrize("bad, message", _BAD_LABELS, ids=[repr(b) for b, _ in _BAD_LABELS])
@pytest.mark.parametrize("where, put", [
    ("units", _put_units), ("src", _put_map("src")), ("rng", _put_map("rng")),
    ("inv", _put_map("inv")), ("comp", _put_comp(0)), ("comp", _put_comp(1)),
    ("comp", _put_comp(2)),
], ids=["units", "src", "rng", "inv", "comp-a", "comp-b", "comp-ab"])
def test_bad_label_message(where, put, bad, message):
    doc = _doc()
    put(doc, bad)
    with pytest.raises(document.DocumentError) as err:
        document.decode_groupoid(doc)
    assert str(err.value) == f"{where}: {message}"


def test_first_bad_label_of_a_comp_triple_is_named():
    doc = _doc()
    doc["comp"][7] = [doc["elements"][0], ["x"], "ghost"]
    with pytest.raises(document.DocumentError) as err:
        document.decode_groupoid(doc)
    assert str(err.value) == "comp: unknown label ['x']"


def _raw_tables(doc):
    """The tables of a document whose labels all resolve, comp as a dict."""
    index = {lab: i for i, lab in enumerate(doc["elements"])}

    def column(name):
        return tuple(index[doc[name][lab]] for lab in doc["elements"])

    return oracle.RawTable(
        n=len(index), units=frozenset(index[u] for u in doc["units"]), src=column("src"),
        rng=column("rng"), comp={(index[a], index[b]): index[c] for a, b, c in doc["comp"]},
        inv=column("inv"), labels=tuple(doc["elements"]))


@st.composite
def _corrupted_documents(draw):
    """An encoded library or corpus groupoid with one to three corruptions,
    each of a kind drawn: a triple dropped, added on a pair that does not
    compose, or given another product; a src or rng moved to an arrow that
    is no unit; a unit dropped; or an inverse changed."""
    G = draw(st.one_of(
        st.sampled_from([generators.klein_cross(), generators.s3_a3_bundle(),
                         generators.pair_groupoid(3)]),
        st.builds(lambda seed: generators.random_groupoid(seed, checks.corpus_budget(seed)),
                  st.integers(0, 199))))
    doc = document.encode_groupoid(G)
    label = st.sampled_from(doc["elements"])
    non_units = [lab for lab in doc["elements"] if lab not in doc["units"]]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "stray", "change", "off-units", "unit-dropped",
                                     "inverse"]))
        pairs = {(a, b) for a, b, _ in doc["comp"]}
        if kind == "drop" and doc["comp"]:
            del doc["comp"][draw(st.integers(0, len(doc["comp"]) - 1))]
        elif kind == "stray":
            a, b = draw(label), draw(label)
            if doc["src"][a] != doc["rng"][b] and (a, b) not in pairs:
                doc["comp"].append([a, b, draw(label)])
        elif kind == "change" and doc["comp"]:
            doc["comp"][draw(st.integers(0, len(doc["comp"]) - 1))][2] = draw(label)
        elif kind == "off-units" and non_units:
            table = doc[draw(st.sampled_from(["src", "rng"]))]
            table[draw(label)] = draw(st.sampled_from(non_units))
        elif kind == "unit-dropped" and doc["units"]:
            doc["units"].remove(draw(st.sampled_from(doc["units"])))
        elif kind == "inverse":
            doc["inv"][draw(label)] = draw(label)
    return doc


class TestMalformedDocuments:
    @settings(max_examples=200, deadline=None)
    @given(_corrupted_documents())
    def test_refused_exactly_when_the_lookup_reference_lists_it(self, doc):
        # decode raises MalformedTable when the tuple-keyed reference finds
        # the tables malformed, carrying the same listing; otherwise it
        # decodes, and validate agrees with the reference
        expected = oracle.validate_by_lookups(_raw_tables(doc))
        malformed = any(v.kind == core.MALFORMED for v in expected)
        try:
            G = document.decode_groupoid(doc)
        except core.MalformedTable as err:
            assert malformed and err.violations == expected
        else:
            assert not malformed and core.validate(G) == expected
