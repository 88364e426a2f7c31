"""Command-line interface: exit codes, payload shapes, file handling."""

import contextlib
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import outputs
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupoidlab
from groupoidlab import checks, cli, core, document, generators, groups, quotients

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# The directory holding the imported package, so that a child interpreter
# runs the copy under test.
PACKAGE_ROOT = Path(groupoidlab.__file__).resolve().parents[1]


def _pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def spawn(args):
    """The CLI run on args in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
    return subprocess.run([sys.executable, "-m", "groupoidlab.cli", *args],
                          capture_output=True, text=True, env=env)


def run_fresh(args):
    """Like run, in a fresh interpreter: (exit code, payload)."""
    out = spawn(args)
    return out.returncode, (json.loads(out.stdout) if out.stdout.strip() else None)


def _family_refusal(limit):
    """The payload of a check refused for its quotient family's size."""
    return {"error": "the quotients by every normal subgroupoid of each component "
                     f"take in more than the limit of {limit} arrows"}


def _timeless(payload):
    """payload without its timings, the one part that differs run to run."""
    if isinstance(payload, list):
        return [_timeless(x) for x in payload]
    if isinstance(payload, dict):
        return {k: _timeless(v) for k, v in payload.items()
                if k not in ("seconds", "total_seconds")}
    return payload


class TestGenerateAndValidate:
    def test_generate_then_validate(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        code, _ = run(["generate", "--kind", "klein-cross", "--output", str(path)], capsys)
        assert code == 0
        code, data = run(["validate", "--input", str(path)], capsys)
        assert code == 0
        assert data["valid"] is True
        assert data["elements"] == 20 and data["units"] == 5

    def test_generate_every_kind(self, capsys):
        for kind in ("random", "klein-cross", "s3", "s3-a3-bundle",
                     "pair:3", "trivial:2", "group:D4"):
            code, data = run(["generate", "--kind", kind], capsys)
            assert code == 0
            assert data["schema_version"] == "1"

    def test_generate_is_seed_deterministic(self, capsys):
        code1, a = run(["generate", "--kind", "random", "--seed", "9"], capsys)
        code2, b = run(["generate", "--kind", "random", "--seed", "9"], capsys)
        assert code1 == code2 == 0 and a == b

    def test_validate_reports_violations_with_exit_one(self, tmp_path, capsys):
        _, doc = run(["generate", "--kind", "s3"], capsys)
        doc["comp"] = [t for t in doc["comp"] if t[:2] != ["s@p", "t@p"]]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, data = run(["validate", "--input", str(path)], capsys)
        assert code == 1
        assert data["valid"] is False
        assert data["violations"][0]["kind"] == "malformed-table"

    def test_unparseable_input_exits_two(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        for junk in (b"{not json", b'{"units": "\xff"}', b"[" * 200_000):
            path.write_bytes(junk)
            code, data = run(["validate", "--input", str(path)], capsys)
            assert code == 2 and "error" in data

    def test_missing_file_exits_two(self, capsys):
        code, data = run(["validate", "--input", "/nonexistent/x.json"], capsys)
        assert code == 2 and "error" in data

    def test_schema_violation_exits_two(self, tmp_path, capsys):
        _, doc = run(["generate", "--kind", "s3"], capsys)
        doc["surprise"] = 1
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        code, data = run(["validate", "--input", str(path)], capsys)
        assert code == 2 and "unknown fields" in data["error"]

    def test_unknown_kind_exits_two(self, capsys):
        code, data = run(["generate", "--kind", "dodecahedron"], capsys)
        assert code == 2 and "known" in data

    def test_unknown_group_exits_two(self, capsys):
        code, data = run(["generate", "--kind", "group:M11"], capsys)
        assert code == 2

    def test_bad_size_exits_two(self, tmp_path, monkeypatch, capsys):
        # a size over cli.MAX_ARROWS or a count over cli.MAX_COUNT is refused
        # before any table is built, a document that large before validation
        big = tmp_path / "big.json"
        big.write_text(json.dumps(document.encode_groupoid(
            generators.trivial_groupoid(cli.MAX_ARROWS + 1))))

        def refuse(*args, **kwargs):
            raise AssertionError("a model was built")

        for module, name in ((generators, "pair_groupoid"), (generators, "trivial_groupoid"),
                             (generators, "random_groupoid"), (checks, "corpus_report"),
                             (core, "validate")):
            monkeypatch.setattr(module, name, refuse)
        code, _ = run(["generate", "--kind", "pair:0"], capsys)
        assert code == 2
        code, _ = run(["generate", "--kind", "trivial:x"], capsys)
        assert code == 2
        for args in (["generate", "--kind", "pair:100000"],
                     ["check", "--kind", "trivial:99999999999"],
                     ["generate", "--kind", f"trivial:{cli.MAX_ARROWS + 1}"],
                     ["validate", "--kind", "random", "--budget", "1000000000"],
                     ["check", "--corpus", "--budget", "1000000000"],
                     ["generate", "--kind", "random", "--budget", "0"],
                     ["validate", "--kind", "random", "--budget", "0"],
                     ["check", "--corpus", "--budget", "0"],
                     ["check", "--corpus", "--count", "-3"],
                     ["check", "--corpus", "--count", "0"],
                     ["check", "--corpus", "--count", str(cli.MAX_COUNT + 1)],
                     ["check", "--corpus", "--count", "100000000"],
                     ["check", "--corpus", "--count", "1", "--jobs", "0"],
                     ["check", "--corpus", "--count", "1", "--jobs", "-5"],
                     ["validate", "--input", str(big)],
                     ["check", "--input", str(big)]):
            code, data = run(args, capsys)
            assert code == 2 and "error" in data, args


    def test_oversize_document_is_refused_before_its_rows_are_laid_out(self, tmp_path,
                                                                       monkeypatch, capsys):
        # the rows of 4,097 arrows on one unit would hold 16.8 million slots,
        # though the document lists no product: the element count is refused
        # before they or the listing of the missing pairs are made, and a
        # document error still comes first
        n = cli.MAX_ARROWS + 1
        labels = [f"g{i}" for i in range(n)]
        doc = {"schema_version": "1", "elements": labels, "units": ["g0"],
               "src": dict.fromkeys(labels, "g0"), "rng": dict.fromkeys(labels, "g0"),
               "comp": [], "inv": {g: g for g in labels}}
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**doc, "comp": [["g0", "g0", "nowhere"]]}))

        def refuse(*args, **kwargs):
            raise AssertionError("the pairs were listed")

        monkeypatch.setattr(core, "malformed_listing", refuse)
        tracemalloc.start()
        try:
            for command in ("validate", "check", "quotient", "abelianize", "dual", "characters"):
                assert run([command, "--input", str(big)], capsys) == (2, {
                    "error": f"document {str(big)!r} means up to {n} arrows; "
                             f"the limit is {cli.MAX_ARROWS}"})
                assert run([command, "--input", str(bad)], capsys) == (2, {
                    "error": "comp: unknown label 'nowhere'"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20   # the rows alone would take 134 MB

    def test_a_malformed_document_is_freed_when_its_command_returns(self, tmp_path, monkeypatch,
                                                                    capsys):
        # _load keeps the MalformedTable decode raised without its traceback,
        # which would hold _load's frame and so the table: no cycle is left
        # for the collector, which is off here
        doc = document.encode_groupoid(generators.klein_cross())
        doc["comp"] = doc["comp"][:-3]
        path = tmp_path / "holed.json"
        path.write_text(json.dumps(doc))
        refused = []
        decode = document.decode_groupoid

        def recording(doc):
            try:
                return decode(doc)
            except core.MalformedTable as exc:
                refused.append(weakref.ref(exc))
                raise

        monkeypatch.setattr(document, "decode_groupoid", recording)
        gc.disable()
        try:
            for command in ("validate", "check", "quotient"):
                assert run([command, "--input", str(path)], capsys)[0] == 1
            assert len(refused) == 3 and [ref() for ref in refused] == [None] * 3
        finally:
            gc.enable()


class TestQuotientCommand:
    def test_default_carrier_is_the_isotropy(self, capsys):
        code, data = run(["quotient", "--kind", "klein-cross"], capsys)
        assert code == 0
        assert data["exact"] is True
        # the effective quotient: one unit point plus a C2 swap on each arm
        assert len(data["quotient"]["elements"]) == 9
        assert len(data["by"]) == 12

    def test_quotient_by_units_preserves_size(self, capsys):
        code, data = run(["quotient", "--kind", "s3", "--by", "units"], capsys)
        assert code == 0
        assert len(data["quotient"]["elements"]) == 6

    def test_explicit_carrier_labels(self, capsys):
        code, data = run(["quotient", "--kind", "s3", "--by", "e@p;s@p;s2@p"], capsys)
        assert code == 0
        assert len(data["quotient"]["elements"]) == 2
        assert data["class_map"]["t@p"] != data["class_map"]["e@p"]

    def test_normality_is_decided_once(self, capsys, monkeypatch):
        calls = []
        is_normal = quotients.is_normal
        monkeypatch.setattr(quotients, "is_normal",
                            lambda G, H: calls.append(H) or is_normal(G, H))
        code, data = run(["quotient", "--kind", "s3", "--by", "e@p;s@p;s2@p"], capsys)
        assert code == 0 and data["exact"] is True
        assert len(calls) == 1

    def test_non_normal_carrier_exits_one(self, capsys):
        code, data = run(["quotient", "--kind", "s3", "--by", "e@p;t@p"], capsys)
        assert code == 1
        assert data["kind"] == "not-conjugation-closed"

    def test_unknown_carrier_label_exits_two(self, capsys):
        code, data = run(["quotient", "--kind", "s3", "--by", "nope"], capsys)
        assert code == 2


class TestAlgebraCommands:
    def test_abelianize_payload(self, capsys):
        code, data = run(["abelianize", "--kind", "s3-a3-bundle"], capsys)
        assert code == 0
        assert data["abelianization_dim"] == 5
        assert len(data["abelianized"]["elements"]) == 5
        assert data["fixed_points"] == ["e@p", "e@q"]

    def test_characters_payload(self, capsys):
        code, data = run(["characters", "--kind", "klein-cross"], capsys)
        assert code == 0
        assert data["count"] == 4 and data["abelianization_dim"] == 4
        assert all(c["unit"] == "(e,c)" for c in data["characters"])

    def test_characters_of_pair_groupoid_are_empty(self, capsys):
        code, data = run(["characters", "--kind", "pair:2"], capsys)
        assert code == 0
        assert data["count"] == 0 and data["characters"] == []

    def test_dual_payload(self, capsys):
        code, data = run(["dual", "--kind", "group:C6"], capsys)
        assert code == 0
        assert data["total_characters"] == 6
        assert data["fibers"]["e@p"]["invariant_factors"] == [6]

    def test_dual_rejects_nonabelian_with_exit_one(self, capsys):
        code, data = run(["dual", "--kind", "s3"], capsys)
        assert code == 1
        assert data == {"error": "fiber at unit e@p is not abelian: "
                                 "fiber@e@p: multiplication table is not commutative"}

    def test_dual_rejects_non_bundle_with_exit_one(self, capsys):
        code, data = run(["dual", "--kind", "pair:2"], capsys)
        assert code == 1 and "error" in data
        G = generators.pair_groupoid(2)
        moving = next(g for g in G.arrows() if G.src[g] != G.rng[g])
        assert data["error"] == f"not a group bundle: arrow {G.labels[moving]} moves its source"


class TestCheckCommand:
    def test_single_model_check(self, capsys):
        code, data = run(["check", "--kind", "klein-cross"], capsys)
        assert code == 0
        assert data["status"] == "pass"

    def test_small_corpus_check(self, capsys):
        code, data = run(["check", "--corpus", "--count", "8"], capsys)
        assert code == 0
        assert data["status"] == "pass"
        assert data["counts"]["fail"] == 0

    def test_jobs_is_clamped_to_the_cpu_count(self, monkeypatch, capsys):
        # a stand-in report records the worker count, so no worker starts
        seen = []

        def report(seed, count, cap, jobs):
            seen.append(jobs)
            return checks.CheckReport()

        monkeypatch.setattr(checks, "corpus_report", report)
        for cpus, asked in ((2, 1), (2, 2), (2, 64), (None, 4)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            code, data = run(["check", "--corpus", "--jobs", str(asked)], capsys)
            assert code == 0 and data["status"] == "pass"
        assert seen == [1, 2, 2, 1]

    def test_corrupted_document_fails_check_with_witness(self, tmp_path, capsys):
        _, doc = run(["generate", "--kind", "s3"], capsys)
        doc["inv"]["s@p"] = "s@p"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, data = run(["check", "--input", str(path)], capsys)
        assert code == 1
        assert data["status"] == "fail"
        axioms = next(c for c in data["checks"] if c["name"] == "axioms")
        assert axioms["status"] == "fail" and axioms["witness"]

    def test_too_much_quotient_work_exits_two(self, tmp_path, monkeypatch, capsys):
        # C2^7 has 29,212 normal subgroups: 128 x 29,212 arrows to quotient.
        # quotient-family, the first check after axioms, counts them and is
        # refused: no quotient map is taken and nothing is abelianized
        c2_7 = groups.cyclic(2)
        for _ in range(6):
            c2_7 = groups.direct_product(c2_7, groups.cyclic(2))
        path = tmp_path / "c2_7.json"
        path.write_text(json.dumps(document.encode_groupoid(
            generators.group_bundle([("p", c2_7)]))))

        ran = []

        def refuse(*args, **kwargs):
            ran.append(args)
            raise AssertionError("a check after axioms ran")

        monkeypatch.setattr(quotients, "quotient_map", refuse)
        monkeypatch.setattr(quotients, "abelianize_groupoid", refuse)
        code = cli.main(["check", "--input", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and err == "" and ran == []
        assert out == json.dumps(_family_refusal(250_000), indent=2) + "\n"
        monkeypatch.undo()
        G = generators.klein_cross()
        work = sum(GC.n * len(normals)
                   for GC, _, normals in quotients.component_normal_subgroupoids(G))
        for limit, expected in ((work, 0), (work - 1, 2)):
            monkeypatch.setattr(quotients, "MAX_FAMILY_ARROWS", limit)
            code, _ = run(["check", "--kind", "klein-cross"], capsys)
            assert code == expected, limit

    def test_corpus_over_the_family_bound_exits_two(self, monkeypatch, capsys):
        # the corpus runs the same checks under the same bound
        monkeypatch.setattr(quotients, "MAX_FAMILY_ARROWS", 1)
        code = cli.main(["check", "--corpus", "--count", "2"])
        out, err = capsys.readouterr()
        assert code == 2 and err == ""
        assert json.loads(out) == _family_refusal(1)

    def test_no_corpus_instance_reaches_the_family_bound(self):
        # a corpus instance is a disjoint union of library components, each
        # transitive, of at most MAX_ARROWS arrows in all: its quotients take
        # in at most the largest component count times MAX_ARROWS arrows
        counts = []
        for i, (_, subs) in enumerate(groups.library_subgroups()):
            for j in range(len(subs)):
                [(_, _, normals)] = quotients.component_normal_subgroupoids(
                    generators._library_component(i, j))
                counts.append(len(normals))
        assert len(counts) == 64 and max(counts) == 6
        assert max(counts) * cli.MAX_ARROWS <= quotients.MAX_FAMILY_ARROWS

    def test_check_enumerates_the_normal_subgroupoids_once(self, tmp_path, monkeypatch, capsys):
        # the quotient-family check enumerates them, and nothing else does
        enumerate_ = quotients.component_normal_subgroupoids
        calls = []

        def counted(G):
            calls.append(G.n)
            return enumerate_(G)

        monkeypatch.setattr(quotients, "component_normal_subgroupoids", counted)
        _, doc = run(["generate", "--kind", "klein-cross"], capsys)
        path = tmp_path / "klein.json"
        path.write_text(json.dumps(doc))
        for source in (["--input", str(path)], ["--kind", "klein-cross"], ["--kind", "s3"]):
            calls.clear()
            code, data = run(["check", *source], capsys)
            assert code == 0 and data["status"] == "pass", source
            assert len(calls) == 1, source

    def test_document_that_is_no_groupoid_is_still_checked(self, tmp_path, monkeypatch,
                                                           capsys):
        # axioms fails with a witness; the quotient-work count and the
        # checks resting on a groupoid do not run
        def refuse(*args, **kwargs):
            raise AssertionError("counted the normal subgroupoids of a non-groupoid")

        monkeypatch.setattr(quotients, "component_normal_subgroupoids", refuse)
        _, doc = run(["generate", "--kind", "s3"], capsys)
        doc["comp"] = doc["comp"][1:]
        path = tmp_path / "holed.json"
        path.write_text(json.dumps(doc))
        code, data = run(["check", "--input", str(path)], capsys)
        assert code == 1 and data["status"] == "fail"
        assert data["counts"] == {"pass": 0, "fail": 1, "skip": 5}
        axioms = data["checks"][0]
        assert axioms["name"] == "axioms" and axioms["status"] == "fail" and axioms["witness"]


# Arbitrary JSON values, for the fields and entries a mutation replaces.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4)


def _position(draw, holder):
    """A (container, key) pair in holder[0], reached by descending one level
    at a time: always into a top-level field, then on with even odds."""
    container, key = holder, 0
    while (isinstance(container[key], (dict, list)) and container[key]
           and (container is holder or draw(st.booleans()))):
        node = container[key]
        container, key = node, draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
    return container, key


def _swapped(node, swap: dict):
    """node with each string, value or key, renamed by swap."""
    if isinstance(node, list):
        return [_swapped(x, swap) for x in node]
    if isinstance(node, dict):
        return {swap.get(k, k): _swapped(v, swap) for k, v in node.items()}
    return swap.get(node, node) if isinstance(node, str) else node


@st.composite
def _mutated_documents(draw):
    """A valid document after one or two mutations at drawn positions:
    arbitrary JSON in place of a value, an entry dropped, or two labels
    exchanged throughout a value."""
    G = draw(st.sampled_from([generators.klein_cross(), generators.s3_point()]))
    holder = [document.encode_groupoid(G)]
    for _ in range(draw(st.integers(1, 2))):
        container, key = _position(draw, holder)
        how = draw(st.sampled_from(["replace", "drop", "swap"]))
        if how == "replace" or container is holder:
            container[key] = draw(_JSON)
        elif how == "drop":
            del container[key]
        else:
            a, b = draw(st.lists(st.sampled_from(G.labels), min_size=2, max_size=2, unique=True))
            container[key] = _swapped(container[key], {a: b, b: a})
    return holder[0]


class TestContract:
    @settings(max_examples=100, deadline=None)
    @given(_mutated_documents())
    def test_any_document_exits_zero_one_or_two_with_json(self, doc):
        text = json.dumps(doc)
        for command in ("validate", "quotient", "abelianize", "dual", "characters", "check"):
            out = io.StringIO()
            with mock.patch.object(sys, "stdin", io.StringIO(text)), \
                    contextlib.redirect_stdout(out):
                code = cli.main([command, "--input", "-"])
            assert code in (cli.EXIT_OK, cli.EXIT_SEMANTIC, cli.EXIT_INPUT), command
            payload = json.loads(out.getvalue())
            assert isinstance(payload, dict), command
            if command == "check" and code == cli.EXIT_SEMANTIC:
                # a verdict needs a groupoid: none passes beside a failed axioms
                status = {c["name"]: c["status"] for c in payload["checks"]}
                if status.pop("axioms") == "fail":
                    assert "pass" not in status.values(), status


class TestPlumbing:
    def test_output_flag_writes_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "out.json"
        code, _ = run(["characters", "--kind", "s3", "--output", str(path)], capsys)
        assert code == 0
        assert json.loads(path.read_text())["count"] == 2
        # the file holds the bytes stdout gets, check's timings held still
        monkeypatch.setattr(checks, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        for args in (["validate", "--kind", "klein-cross"],
                     ["generate", "--kind", "s3-a3-bundle"],
                     ["quotient", "--kind", "s3-a3-bundle", "--by", "units"],
                     ["abelianize", "--kind", "klein-cross"],
                     ["dual", "--kind", "group:V4"],
                     ["characters", "--kind", "klein-cross"],
                     ["check", "--kind", "s3"]):
            code = cli.main(args)
            out = capsys.readouterr().out
            assert cli.main([*args, "--output", str(path)]) == code
            assert capsys.readouterr().out == ""
            assert path.read_bytes() == out.encode(), args

    def test_unwritable_output_exits_two_with_the_error_on_stdout(self, tmp_path, capsys):
        # on a success, and on a failure whose exit-1 payload cannot be written
        for args in (["validate", "--kind", "s3", "--output", str(tmp_path / "no" / "x.json")],
                     ["check", "--kind", "s3", "--output", str(tmp_path)],
                     ["dual", "--kind", "pair:2", "--output", str(tmp_path / "no" / "x.json")]):
            code, data = run(args, capsys)
            assert code == cli.EXIT_INPUT and data["error"].startswith("cannot write"), args
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_usage_error_goes_to_stdout_even_with_output(self, tmp_path, capsys):
        code, data = run(["dual", "--kind", "pair:2", "--bogus",
                          "--output", str(tmp_path / "no" / "x.json")], capsys)
        assert code == cli.EXIT_INPUT
        assert "--bogus" in data["error"] and data["usage"].startswith("usage: groupoidlab")
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_stdin_input(self):
        gen = subprocess.run(
            [sys.executable, "-m", "groupoidlab.cli", "generate", "--kind", "s3"],
            capture_output=True, text=True, check=True)
        val = subprocess.run(
            [sys.executable, "-m", "groupoidlab.cli", "validate", "--input", "-"],
            input=gen.stdout, capture_output=True, text=True)
        assert val.returncode == 0
        assert json.loads(val.stdout)["valid"] is True

    def test_console_script_entry_point(self):
        # Run the declared [project.scripts] target the way an installer's
        # generated launcher does, so the check needs no installed script.
        scripts = _pyproject()["project"]["scripts"]
        assert scripts["groupoidlab"] == "groupoidlab.cli:main"
        module, attr = scripts["groupoidlab"].split(":")
        launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")])))

        def launch(*args):
            return subprocess.run([sys.executable, "-c", launcher, *args],
                                  capture_output=True, text=True, env=env)

        out = launch("validate", "--kind", "s3")
        assert out.returncode == 0
        assert json.loads(out.stdout)["valid"] is True
        # The exit code of a rejected request reaches the shell only
        # through main()'s return value.
        out = launch("validate", "--kind", "group:nope")
        assert out.returncode == cli.EXIT_INPUT
        assert "error" in json.loads(out.stdout)

    @pytest.mark.skipif(shutil.which("groupoidlab") is None,
                        reason="no installed groupoidlab executable on PATH")
    def test_installed_console_script(self):
        out = subprocess.run(["groupoidlab", "validate", "--kind", "s3"],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert json.loads(out.stdout)["valid"] is True

    def test_check_runs_without_numpy(self):
        script = ("import sys; sys.modules['numpy'] = None; from groupoidlab import cli; "
                  "sys.exit(cli.main(['check', '--kind', 'klein-cross']))")
        env = dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT))
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["status"] == "pass"

    def test_usage_error_exits_two(self):
        for args in (["frobnicate"], ["validate", "--bogus"], [], ["check", "--count", "x"]):
            code, data = run_fresh(args)
            assert code == cli.EXIT_INPUT, args
            assert data["error"] and data["usage"].startswith("usage: groupoidlab"), args

    def test_two_sources_are_a_usage_error(self, monkeypatch, capsys):
        # one source per request: a second one is refused, not dropped
        def refuse(*args, **kwargs):
            raise AssertionError("a source was read")

        for module, name in ((checks, "corpus_report"), (cli, "_read_document"),
                             (cli, "_model")):
            monkeypatch.setattr(module, name, refuse)
        for args in (["check", "--corpus", "--count", "1", "--input", "/nonexistent.json"],
                     ["check", "--kind", "s3", "--corpus"],
                     ["validate", "--kind", "s3", "--input", "doc.json"],
                     ["quotient", "--input", "doc.json", "--kind", "klein-cross"],
                     ["abelianize", "--kind", "s3", "--input", "-"],
                     ["dual", "--input", "doc.json", "--kind", "group:C6"],
                     ["characters", "--kind", "s3", "--input", "doc.json"],
                     ["check", "--input", "doc.json", "--kind", "s3"]):
            code, data = run(args, capsys)
            assert code == cli.EXIT_INPUT, args
            assert "not allowed with argument" in data["error"], args
            assert data["usage"].startswith(f"usage: groupoidlab {args[0]}"), args

    def test_help_is_text_with_exit_zero(self):
        out = spawn(["check", "--help"])
        assert out.returncode == 0
        assert out.stdout.startswith("usage: groupoidlab check")


class TestParser:
    def test_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_serves_a_request_after_a_usage_error(self, capsys):
        code, data = run(["check", "--count", "x"], capsys)
        assert code == cli.EXIT_INPUT and "--count" in data["error"]
        code, data = run(["validate", "--kind", "s3"], capsys)
        assert code == cli.EXIT_OK and data["valid"] is True

    def test_keeps_no_state_between_requests(self, capsys):
        # in one process, each request after the first answers as it does
        # in a fresh interpreter: no option of one request reaches the next
        payloads = {}
        for args in (["quotient", "--kind", "klein-cross", "--by", "units"],
                     ["quotient", "--kind", "klein-cross"],
                     ["check", "--corpus", "--count", "1"],
                     ["check", "--kind", "s3"]):
            code, data = run(args, capsys)
            fresh_code, fresh_data = run_fresh(args)
            assert (code, _timeless(data)) == (fresh_code, _timeless(fresh_data)), args
            payloads[" ".join(args)] = data
        assert len(payloads["quotient --kind klein-cross"]["by"]) == 12   # the isotropy
        assert {c["instance"] for c in payloads["check --kind s3"]["checks"]} == {"s3"}


# Label characters that JSON output escapes: a non-ASCII letter, an astral
# character (written as a surrogate pair), a quote, a backslash and a tab.
ESCAPED = ("\u00e9", "\U0001d11e", '"', "\\", "\t")


def _escaped_document(kind):
    """The document of a built-in model, each label carrying one of ESCAPED."""
    doc = document.encode_groupoid(cli._model(kind, 0, 60))
    return _swapped(doc, {lab: f"{lab}{ESCAPED[i % len(ESCAPED)]}x"
                          for i, lab in enumerate(doc["elements"])})


class TestOutputBytes:
    """Every payload is printed as json.dumps(payload, indent=2) and one
    newline: two-space indentation, the payload's key order, ASCII."""

    def test_every_subcommand_prints_the_indented_dump(self, tmp_path, capsys):
        bundle, group = tmp_path / "bundle.json", tmp_path / "group.json"
        doc = _escaped_document("s3-a3-bundle")
        bundle.write_text(json.dumps(doc), encoding="utf-8")
        group.write_text(json.dumps(_escaped_document("group:V4")), encoding="utf-8")
        units = ";".join(doc["units"])
        requests = [
            (["validate", "--input", str(bundle)], cli.EXIT_OK),
            (["generate", "--kind", "s3-a3-bundle"], cli.EXIT_OK),
            (["quotient", "--input", str(bundle)], cli.EXIT_OK),
            (["quotient", "--input", str(bundle), "--by", "units"], cli.EXIT_OK),
            (["quotient", "--input", str(bundle), "--by", units], cli.EXIT_OK),
            (["abelianize", "--input", str(bundle)], cli.EXIT_OK),
            (["characters", "--input", str(bundle)], cli.EXIT_OK),
            (["dual", "--input", str(group)], cli.EXIT_OK),
            (["dual", "--input", str(bundle)], cli.EXIT_SEMANTIC),
            (["check", "--input", str(bundle)], cli.EXIT_OK),
            (["check", "--corpus", "--count", "3"], cli.EXIT_OK),
            (["quotient", "--input", str(bundle), "--bogus"], cli.EXIT_INPUT),
        ]
        seen = ""
        for args, code in requests:
            assert cli.main(args) == code, args
            out = capsys.readouterr().out
            assert out == json.dumps(json.loads(out), indent=2) + "\n", args
            seen += out
        for text in ("\\u00e9", "\\ud834\\udd1e", '\\"', "\\\\", "\\t"):
            assert text in seen, text
        assert seen.isascii()

    @pytest.mark.parametrize("value", [
        {}, [], {"a": {}}, [[]], {"a": [{}]}, [{"b": [[]]}], [[{"c": {}}, []]],
        {"a": [[[]]]}, [True, 1], {"yes": True, "one": 1}, [1, True], [False, 0],
        None, [None], {"a": None}, 1e-07, [1e-07, float("nan")], {"x": float("nan")},
        [float("inf"), -0.0], {1: "a", 2: "b"}, {"a": {1: [2, 3]}}, {True: 1, None: 2},
        [["a"], ["b"]], [["a", "b"], ["c"]], [["a", 1], ["b", 2]], [["a", "b"], ["c", None]],
        [["a", "b"], []], [[], []], [["a", ["b"]]], ["a", 1], [1, 2, 3], ["a", "b"],
        {"a": "b", "c": "d"}, {"a": 1, "b": "c"}, {"a": [["x", "y"]], "b": (1, 2)},
        (1, [2, "z"]), ["\u00e9", "\U0001d11e", '"', "\\", "\t", ""],
        {"\u00e9": "\U0001d11e", '"': "\\", "\t": ""}, [["\u00e9", '"'], ["\\", "\t"]],
        "x", 7, True,
    ], ids=repr)
    def test_the_writer_is_the_indented_dump(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)


class TestPinnedOutputs:
    """Outputs against the digests of tests/outputs.json, which
    tests/outputs.py writes; the corpus report is pinned in test_acceptance."""

    def test_requests_match_the_fixture(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        got = outputs.request_outputs(tmp_path)
        expected = {k: v for k, v in outputs.fixture().items() if k != " ".join(outputs.CORPUS)}
        assert list(got) == list(expected)
        differ = next((k for k in got if got[k] != expected[k]), None)
        assert differ is None, f"{differ}: {got[differ]}, fixture {expected[differ]}"
