"""The JSON interchange format: strict decoding, faithful round-trips."""

import json
from fractions import Fraction

import pytest

from groupoidlab import algebra, document, generators
from groupoidlab.linalg import Qi


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


class TestElementCodec:
    def test_round_trip(self, s3):
        f = algebra.from_coeffs(s3, {
            0: Qi(Fraction(1, 2), Fraction(-3, 7)),
            2: Qi(-2, 0),
            5: Qi(0, 1),
        })
        data = document.encode_element(f)
        assert document.decode_element(s3, data) == f

    def test_encoded_form_is_integer_quads(self, s3):
        f = algebra.from_coeffs(s3, {1: Qi(Fraction(3, 4))})
        data = document.encode_element(f)
        assert data == {s3.labels[1]: [3, 4, 0, 1]}

    def test_rejects_unknown_label(self, s3):
        with pytest.raises(document.DocumentError, match="unknown label"):
            document.decode_element(s3, {"nope": [1, 1, 0, 1]})

    def test_rejects_bad_quad(self, s3):
        with pytest.raises(document.DocumentError):
            document.decode_element(s3, {s3.labels[0]: [1, 1]})
        with pytest.raises(document.DocumentError):
            document.decode_element(s3, {s3.labels[0]: [1.5, 1, 0, 1]})
        for quad in ([1, 0, 0, 1], [1, 1, 2, 0], [True, 1, 0, 1], [1, 1, 0, False]):
            with pytest.raises(document.DocumentError):
                document.decode_element(s3, {s3.labels[0]: quad})

    def test_zero_coefficients_are_dropped(self, s3):
        f = document.decode_element(s3, {s3.labels[0]: [0, 1, 0, 1]})
        assert f.is_zero()
