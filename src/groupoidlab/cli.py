"""Command-line interface.

Subcommands operate on groupoid documents (JSON) or built-in models and print
JSON to stdout.  Exit codes: 0 on success, 1 when the input parses but fails a
semantic requirement (axiom violations, failed checks, wrong category of
input), 2 when the input cannot be parsed or the invocation is malformed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain

from . import abelian, algebra, checks, core, document, generators, groups, quotients

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2

# The most arrows of a groupoid the CLI takes, as many as pair:64.  Every
# table is held in memory, and time and memory grow with them: on pair:64 the
# composition has 64^3 = 262,144 products, which a document lists as triples
# and a groupoid holds as 4,096 rows of 64 (64 distinct rows when generated).
# Validation checks the ends of every row's products and runs Light's test
# over a generating set (126 middles), one row gather per arrow out of each
# middle's range, and on trivial:4096 the bundle transform holds
# sum |A_x|^2 exponents.  So a larger --kind or --budget is refused before any
# table is built, and a larger document once read, before anything that can
# outgrow it (the listing of the pairs its triples miss) is made, instead of
# running for minutes or ending in a MemoryError.
# quotients.MAX_FAMILY_ARROWS bounds the quotients check takes; a corpus
# instance within this limit stays under it, as a library component has at
# most 6 normal subgroupoids.
MAX_ARROWS = 4096

# The most instances one check --corpus run takes.  The report holds six
# CheckResults per instance until it prints them as one JSON document, about
# 8 kB of memory per instance (a 1,000-instance run peaks at 34 MB), so a
# larger count is refused before anything runs instead of growing towards a
# MemoryError.  A longer corpus is several runs with different --seed values.
MAX_COUNT = 10_000


class CliError(Exception):
    """Carries the exit code and a JSON payload describing what went wrong."""

    def __init__(self, code: int, payload: dict):
        super().__init__(payload.get("error", "error"))
        self.code = code
        self.payload = payload


# --- input handling ---------------------------------------------------------

def _model(kind: str, seed: int, budget: int) -> core.FiniteGroupoid:
    if kind == "random":
        return generators.random_groupoid(seed, _budget(budget))
    if kind in generators.NAMED_MODELS:
        return generators.NAMED_MODELS[kind]()
    if kind.startswith("pair:"):
        n = _positive(kind.split(":", 1)[1], kind)
        _within_limit(n * n, f"kind {kind!r}")
        return generators.pair_groupoid(n)
    if kind.startswith("trivial:"):
        n = _positive(kind.split(":", 1)[1], kind)
        _within_limit(n, f"kind {kind!r}")
        return generators.trivial_groupoid(n)
    if kind.startswith("group:"):
        name = kind.split(":", 1)[1]
        builder = groups.LIBRARY_BUILDERS.get(name)
        if builder is None:
            raise CliError(EXIT_INPUT, {
                "error": f"unknown group {name!r}",
                "known": sorted(groups.LIBRARY_BUILDERS)})
        return generators.group_bundle([("p", builder())])
    raise CliError(EXIT_INPUT, {
        "error": f"unknown kind {kind!r}",
        "known": ["random", "pair:N", "trivial:N", "group:NAME",
                  *sorted(generators.NAMED_MODELS)]})


def _positive(text: str, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise CliError(EXIT_INPUT, {"error": f"kind {kind!r} needs a positive size"})
    return value


def _at_least_one(value: int, option: str) -> int:
    if value < 1:
        raise CliError(EXIT_INPUT, {"error": f"{option} must be at least 1, got {value}"})
    return value


def _within_limit(arrows: int, what: str) -> int:
    if arrows > MAX_ARROWS:
        raise CliError(EXIT_INPUT, {
            "error": f"{what} means up to {arrows} arrows; the limit is {MAX_ARROWS}"})
    return arrows


def _budget(value: int) -> int:
    return _within_limit(_at_least_one(value, "--budget"), "--budget")


def _count(value: int) -> int:
    if _at_least_one(value, "--count") > MAX_COUNT:
        raise CliError(EXIT_INPUT, {
            "error": f"--count is {value}; the limit is {MAX_COUNT} instances"})
    return value


def _read_document(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_INPUT, {"error": f"cannot read {path}: {exc}"}) from exc
    except (ValueError, RecursionError) as exc:   # bad JSON or UTF-8; nesting too deep
        raise CliError(EXIT_INPUT, {"error": f"invalid JSON in {path}: {exc}"}) from exc


def _load(args, validate_axioms: bool = True) -> core.FiniteGroupoid | core.MalformedTable:
    """The groupoid a request names, refused with exit 1 if it breaks an
    axiom; without validate_axioms, a malformed document's MalformedTable."""
    if getattr(args, "input", None):
        try:
            G = document.decode_groupoid(_read_document(args.input))
        except document.DocumentError as exc:
            raise CliError(EXIT_INPUT, {"error": str(exc)}) from exc
        except core.MalformedTable as exc:   # listed only when read, below
            G = exc.with_traceback(None)   # which would hold this frame, and so G
        _within_limit(G.n, f"document {args.input!r}")
    elif getattr(args, "kind", None):
        G = _model(args.kind, args.seed, args.budget)
    else:
        raise CliError(EXIT_INPUT, {"error": "provide --input FILE or --kind KIND"})
    if validate_axioms:
        bad = core.violations_of(G)
        if bad:
            raise CliError(EXIT_SEMANTIC, {
                "error": "axiom violations",
                "violations": [{"kind": v.kind, "message": v.message} for v in bad]})
    return G


# The one JSON writer's parts.  With indent set, json runs its pure-Python
# encoder, a call per value; the writer joins each flat container in C and
# hands the encoder only what it does not lay out itself.
_quote = json.encoder.encode_basestring_ascii
# A scalar's text is the same compact or indented, and compact is json's C
# encoder.  type(True) is bool, not int.
_LEAVES = {str: _quote, int: int.__repr__, float: json.dumps, bool: json.dumps,
           type(None): json.dumps}
_encode = json.JSONEncoder(indent=2).encode


def _json(value, pad: str = "") -> str:
    """json.dumps(value, indent=2), each line after the first indented by
    pad.  A str-keyed dict or a list whose values are all of one scalar type,
    and a list of equal-width rows of str, is laid out by C-level maps and
    joins; any other such dict or list recurses, and the rest is the stdlib
    encoder's text re-indented, where every newline is a line break, as no
    JSON string holds one."""
    kind = type(value)
    if kind in _LEAVES:
        return _LEAVES[kind](value)
    if not value:   # [] or {}, as compact
        return json.dumps(value)
    if kind is not list and (kind is not dict or set(map(type, value)) != {str}):
        return _encode(value).replace("\n", "\n" + pad)
    inner = pad + "  "
    values = value.values() if kind is dict else value
    kinds = set(map(type, values))
    if (kind is list and kinds == {list} and len(widths := set(map(len, value))) == 1
            and 0 not in widths and set(map(type, chain.from_iterable(value))) == {str}):
        cells = map(_quote, chain.from_iterable(value))
        rows = map(f",\n{inner}  ".join, zip(*[cells] * widths.pop()))
        body = f"\n{inner}],\n{inner}[\n{inner}  ".join(rows)
        return f"[\n{inner}[\n{inner}  {body}\n{inner}]\n{pad}]"
    if len(kinds) == 1 and (leaf := _LEAVES.get(*kinds)):
        items = map(leaf, values)
    else:
        items = [_json(v, inner) for v in values]
    if kind is dict:
        items = map(": ".join, zip(map(_quote, value), items))
    body = f",\n{inner}".join(items)
    return f"{{\n{inner}{body}\n{pad}}}" if kind is dict else f"[\n{inner}{body}\n{pad}]"


def _emit(payload: dict, path: str | None) -> None:
    text = _json(payload) + "\n"
    if path and path != "-":
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:   # a missing directory, a directory, no permission
            raise CliError(EXIT_INPUT, {"error": f"cannot write {path}: {exc}"}) from exc
    else:
        sys.stdout.write(text)


# --- subcommands ------------------------------------------------------------
# Each returns its payload and exit code, or raises CliError; main writes it.

def _cmd_validate(args) -> tuple[dict, int]:
    G = _load(args, validate_axioms=False)
    bad = core.violations_of(G)
    return ({"valid": not bad,
             "elements": G.n,
             "units": len(G.units),
             "violations": [{"kind": v.kind, "message": v.message} for v in bad]},
            EXIT_SEMANTIC if bad else EXIT_OK)


def _cmd_generate(args) -> tuple[dict, int]:
    return document.encode_groupoid(_model(args.kind, args.seed, args.budget)), EXIT_OK


def _carrier(G: core.FiniteGroupoid, spec: str) -> frozenset[int]:
    if spec == "isotropy":
        return core.isotropy(G)
    if spec == "units":
        return frozenset(G.units)
    members = set()
    for label in spec.split(";"):
        label = label.strip()
        try:
            members.add(G.label_index(label))
        except ValueError:
            raise CliError(EXIT_INPUT, {"error": f"unknown arrow label {label!r}"}) from None
    return frozenset(members)


def _cmd_quotient(args) -> tuple[dict, int]:
    G = _load(args)
    carrier = _carrier(G, args.by)
    verdict = quotients.is_normal(G, carrier)
    if not verdict:
        raise CliError(EXIT_SEMANTIC, {
            "error": "not a normal subgroupoid",
            "kind": verdict.kind,
            "message": verdict.message})
    H = quotients.NormalSubgroupoid(G, carrier)
    qr = quotients.quotient(G, H)
    exact = quotients.quotient_preimage_of_units(G, qr.class_map) == H.members
    return ({"by": sorted(G.labels[g] for g in carrier),
             "quotient": document.encode_groupoid(qr.quotient),
             "class_map": {G.labels[a]: qr.quotient.labels[qr.class_map[a]]
                           for a in G.arrows()},
             "exact": exact},
            EXIT_OK if exact else EXIT_SEMANTIC)


def _cmd_abelianize(args) -> tuple[dict, int]:
    G = _load(args)
    ab = quotients.abelianize_groupoid(G)
    class_map = {G.labels[g]: ab.g_ab.labels[c] for g, c in enumerate(ab.arrow_map)
                 if c is not None}
    return ({"fixed_points": sorted(G.labels[x] for x in ab.fixed_points),
             "restricted": document.encode_groupoid(ab.g_fix),
             "abelianized": document.encode_groupoid(ab.g_ab),
             "class_map": class_map,
             "abelianization_dim": algebra.abelianization_dim(G)},
            EXIT_OK)


def _cmd_dual(args) -> tuple[dict, int]:
    G = _load(args)
    try:
        bundle = abelian.dual_bundle(G)
    except ValueError as exc:
        raise CliError(EXIT_SEMANTIC, {"error": str(exc)}) from exc
    fibers = {}
    for x in bundle.base:
        group = bundle.fiber_groups[x]
        dec = abelian.invariant_factors(group)
        fibers[G.labels[x]] = {
            "order": group.order,
            "invariant_factors": list(dec.factors),
            "characters": len(bundle.fibers[x]),
        }
    return ({"base": [G.labels[x] for x in bundle.base],
             "total_characters": bundle.size(),
             "fibers": fibers},
            EXIT_OK)


def _cmd_characters(args) -> tuple[dict, int]:
    G = _load(args)
    functionals = algebra.enumerate_characters(quotients.abelianize_groupoid(G))
    return ({"count": len(functionals),
             "abelianization_dim": algebra.abelianization_dim(G),
             "characters": [
                 {"unit": G.labels[phi.unit],
                  "modulus": phi.modulus,
                  "exponents": {G.labels[g]: e for g, e in sorted(phi.exponents.items())}}
                 for phi in functionals]},
            EXIT_OK)


def _cmd_check(args) -> tuple[dict, int]:
    try:
        if args.corpus:
            report = checks.corpus_report(seed=args.seed,
                                          count=_count(args.count),
                                          cap=_budget(args.budget),
                                          jobs=min(_at_least_one(args.jobs, "--jobs"),
                                                   os.cpu_count() or 1))
        else:
            # axiom problems surface as a failing check with a witness, so
            # the suite reports on whatever decodes — only parse errors stop it
            report = checks.file_report(_load(args, validate_axioms=False),
                                        args.input or args.kind)
    except groups.TooManySubgroups as exc:
        raise CliError(EXIT_INPUT, {
            "error": "the quotients by every normal subgroupoid of each component take in "
                     f"more than the limit of {quotients.MAX_FAMILY_ARROWS} arrows"}) from exc
    return report.to_json(), EXIT_OK if report.ok else EXIT_SEMANTIC


# --- parser -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors keep the JSON contract: exit 2
    with a payload on stdout, not usage text on stderr.  Subparsers are built
    from the same class."""

    def error(self, message: str):
        raise CliError(EXIT_INPUT, {"error": message, "usage": self.format_usage().strip()})


def _add_source(p: argparse.ArgumentParser, require_kind: bool = False):
    """The source options.  --input and --kind exclude each other: they go in
    the returned group, to which check adds --corpus."""
    if require_kind:
        source = p
    else:
        source = p.add_mutually_exclusive_group()
        source.add_argument("--input", metavar="FILE",
                            help="groupoid document to read ('-' for stdin)")
    source.add_argument("--kind", metavar="KIND",
                        required=require_kind,
                        help="built-in model: random, klein-cross, s3, s3-a3-bundle, "
                             "pair:N, trivial:N, group:NAME")
    p.add_argument("--seed", type=int, default=0, help="seed for --kind random")
    p.add_argument("--budget", type=int, default=60,
                   help=f"size budget for --kind random, at most {MAX_ARROWS} arrows")
    return source


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args fills a fresh
    Namespace on every call, so no request leaves state for the next."""
    parser = _Parser(
        prog="groupoidlab",
        description="Finite groupoid workbench: quotients, abelianizations, "
                    "character duals, and exact convolution algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the groupoid axioms")
    _add_source(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("generate", help="emit a built-in model as a document")
    _add_source(p, require_kind=True)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("quotient", help="quotient by a normal subgroupoid")
    _add_source(p)
    p.add_argument("--by", default="isotropy", metavar="SPEC",
                   help="carrier: 'isotropy', 'units', or semicolon-separated arrow labels")
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("abelianize",
                       help="restrict to fixed points and abelianize fiberwise")
    _add_source(p)
    p.set_defaults(fn=_cmd_abelianize)

    p = sub.add_parser("dual", help="character dual of an abelian group bundle")
    _add_source(p)
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("characters",
                       help="one-dimensional representations of the convolution algebra")
    _add_source(p)
    p.set_defaults(fn=_cmd_characters)

    p = sub.add_parser("check", help="run the verification suite")
    _add_source(p).add_argument("--corpus", action="store_true",
                                help="run over generated instances plus fixed families")
    p.add_argument("--count", type=int, default=200,
                   help=f"number of corpus instances, at most {MAX_COUNT}")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the corpus, at most the CPU count")
    p.set_defaults(fn=_cmd_check)

    for p in sub.choices.values():
        p.add_argument("--output", metavar="FILE")
    return parser


def main(argv: list[str] | None = None) -> int:
    output = None   # a usage error's payload goes to stdout
    try:
        args = build_parser().parse_args(argv)
        output = args.output
        payload, code = args.fn(args)
    except CliError as exc:
        payload, code = exc.payload, exc.code
    try:
        _emit(payload, output)
    except CliError as exc:   # --output cannot be written: its error goes to stdout
        _emit(exc.payload, None)
        return exc.code
    return code


if __name__ == "__main__":
    sys.exit(main())
