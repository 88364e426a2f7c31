"""The JSON interchange format: strict decoding, faithful round-trips."""

import json

import pytest

from groupoidlab import document, generators


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

    def test_rejects_duplicate_comp_pair(self):
        doc = _doc()
        doc["comp"].append(list(doc["comp"][0]))
        with pytest.raises(document.DocumentError, match="duplicate comp"):
            document.decode_groupoid(doc)

    def test_decoding_skips_axiom_checks(self):
        # a structurally well-formed document that is not a groupoid decodes
        # fine; the validator is the place that rejects it
        from groupoidlab import core
        doc = {
            "schema_version": "1",
            "elements": ["u", "g"],
            "units": ["u"],
            "src": {"u": "u", "g": "u"},
            "rng": {"u": "u", "g": "u"},
            "comp": [["u", "u", "u"]],   # (g,u), (u,g), (g,g) all missing
            "inv": {"u": "u", "g": "g"},
        }
        G = document.decode_groupoid(doc)
        assert core.validate(G) != []



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
