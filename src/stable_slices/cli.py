"""Batch command line interface: one JSON job in, one JSON/CSV document out.

Exit codes: 0 computed (including negative verdicts like NoneFound),
2 input validation failure, 3 numerical failure, 4 internal error.
Diagnostics go to stderr only; the output stream carries exactly one
document.  Complex numbers are [re, im] pairs; polynomial documents carry
the Vieta-signed z vector and an explicit convention tag.

Each command is one entry of ``_COMMANDS``: its payload schema and its
handler, entered together by the ``_command`` decorator.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Callable, NamedTuple, TextIO

import numpy as np

from .errors import (
    DegenerateMap,
    DimensionMismatch,
    NoRootInRegion,
    NonConvergence,
    NonRealInput,
    NotInImage,
)
from .polynomials import Poly, find_roots, vieta_rows
from .regions import HalfPlane, Moebius, moebius_transform_poly
from .slices import (
    Slice,
    compactness_bounds,
    compress,
    sample_slice_section,
)
from .stability import hurwitz_embed, hurwitz_unembed, is_stable, is_weakly_hurwitz
from .symmetric import (
    FoundPoint,
    SufficientForm,
    SymmetricPoly,
    coincide,
    eval_symmetric,
    gws_solve,
    halfdeg_optimize,
    variety_search,
    young_gws,
)


def _closed(properties: dict, *required: str) -> dict:
    """Schema of an object with these properties.  Every other key is an
    input error, so a misspelt option is refused rather than ignored."""
    schema = {"type": "object", "properties": properties}
    if required:
        schema["required"] = list(required)
    schema["additionalProperties"] = False
    return schema


def _array(items: dict, min_items: int | None = None, max_items: int | None = None) -> dict:
    schema = {"type": "array", "items": items}
    if min_items is not None:
        schema["minItems"] = min_items
    if max_items is not None:
        schema["maxItems"] = max_items
    return schema


_NUMBER = {"type": "number"}
_NONNEG_INT = {"type": "integer", "minimum": 0}
_POS_INT = {"type": "integer", "minimum": 1}
_COMPLEX = _array(_NUMBER, 2, 2)
_SCALAR = {"oneOf": [_NUMBER, _COMPLEX]}
_POINTS = _array(_COMPLEX, 1)
_MATRIX = _array(_array(_SCALAR))
_BOX = _array(_NUMBER, 3, 3)
_POLY = _closed({"z": _POINTS, "convention": {"const": "vieta-alternating"}}, "z")
_HALFPLANE = _closed({
    "theta": _NUMBER,
    "base": _COMPLEX,
    "name": {"enum": ["upper", "left"]},
})
_SLICE = _closed({"matrix": _MATRIX, "target": _array(_SCALAR)}, "matrix", "target")


def _terms(key: str) -> dict:
    """Schema of a term list: each term a coefficient and the exponent
    vector under ``key``."""
    return _array(_closed({key: _array(_NONNEG_INT), "coefficient": _SCALAR},
                          key, "coefficient"))


_SYMPOLY = _closed({"n": _POS_INT, "degree": _NONNEG_INT, "terms": _terms("exponents")},
                   "n", "degree", "terms")
_POLY_PAYLOAD = _closed({"poly": _POLY}, "poly")
_COEFFICIENTS_PAYLOAD = _closed({"coefficients": _array(_NUMBER, 1)}, "coefficients")


def _c(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    return complex(value[0], value[1])


def _pair(value: complex) -> list[float]:
    z = complex(value)
    return [float(z.real), float(z.imag)]


def _points(docs) -> tuple[complex, ...]:
    return tuple(_c(v) for v in docs)


def _poly_doc(z) -> dict:
    return {"convention": "vieta-alternating", "z": [_pair(v) for v in z]}


def _parse_poly(doc) -> Poly:
    return Poly(_points(doc["z"]))


def _parse_halfplane(payload) -> HalfPlane:
    """The payload's half-plane; the upper one when it names none.

    A named half-plane takes no ``theta`` or ``base``: the name would
    override them, and a key is refused rather than ignored.
    """
    doc = payload.get("halfplane")
    if doc is None:
        return HalfPlane.upper()
    if "name" in doc:
        if "theta" in doc or "base" in doc:
            raise ValueError("a half-plane takes either 'name' or 'theta' and 'base'")
        return HalfPlane.left() if doc["name"] == "left" else HalfPlane.upper()
    theta = float(doc.get("theta", 0.0))
    base = _c(doc.get("base", [0.0, 0.0]))
    return HalfPlane(theta=theta, base=base)


def _parse_matrix(rows) -> list[list[complex]]:
    return [[_c(v) for v in row] for row in rows]


def _parse_terms(docs, key: str = "exponents") -> dict[tuple[int, ...], complex]:
    return {tuple(t[key]): _c(t["coefficient"]) for t in docs}


def _parse_slice(doc) -> Slice:
    return Slice.from_arrays(_parse_matrix(doc["matrix"]), [_c(v) for v in doc["target"]])


def _parse_real(coefficients) -> Poly:
    """Monic polynomial from its real raw coefficients below the leading 1."""
    return Poly.from_raw(tuple([1.0] + [complex(v) for v in coefficients]))


def _int_options(payload, *keys: str) -> dict[str, int]:
    """The options among keys that the payload gives, as ints; an omitted one
    keeps the library's default.  Every integer field a handler reads goes
    through int, since a job may write 2 as 2.0."""
    return {key: int(payload[key]) for key in keys if key in payload}


def _parse_sympoly(doc) -> SymmetricPoly:
    return SymmetricPoly.from_terms(int(doc["n"]), _parse_terms(doc["terms"]), int(doc["degree"]))


def _profile_doc(profile) -> dict:
    return {
        "interior_total": profile.interior_total,
        "boundary_distinct": profile.boundary_distinct,
        "outside_total": profile.outside_total,
        "clusters": [
            {
                "center": _pair(cl.center),
                "multiplicity": cl.multiplicity,
                "side": cl.side,
                "signed_distance": float(cl.signed_distance),
            }
            for cl in profile.clusters
        ],
    }


def _verdict_doc(verdict) -> dict:
    return {
        "stable": verdict.stable,
        "strict": verdict.strict,
        "profile": _profile_doc(verdict.profile),
        "witness_roots": [_pair(r) for r in verdict.witness],
    }


def _report_doc(report) -> dict:
    return {
        "initial_profile": _profile_doc(report.initial_profile),
        "final_profile": _profile_doc(report.final_profile),
        "final_z": _poly_doc(report.final_z.z),
        "iterations": report.iterations,
        "rank": report.rank,
        "sharpened": report.sharpened,
        "targets": list(report.targets),
        "checkpoints": [list(m) for m in report.checkpoints],
        "origin_boundary_clusters": report.origin_boundary_clusters,
        "steps": [
            {
                "mode": st.mode,
                "direction": [_pair(v) for v in st.direction],
                "step_size": float(st.step_size),
                "event": st.event,
                "measure_after": list(st.measure_after),
                "membership_residual": float(st.membership_residual),
                "stable": bool(st.stable),
            }
            for st in report.steps
        ],
    }


def emit_section_csv(grid, stream) -> None:
    """Write the membership grid as x,y,member rows, 9 significant digits."""

    def fmt(v: float) -> str:
        text = f"{v:.9g}"
        if "." not in text and "e" not in text and "inf" not in text:
            text += ".0"
        return text

    stream.write("x,y,member\n")
    for i, y in enumerate(grid.ys):
        for j, x in enumerate(grid.xs):
            stream.write(f"{fmt(x)},{fmt(y)},{1 if grid.members[i][j] else 0}\n")


@dataclasses.dataclass(frozen=True)
class _Context:
    """What a handler gets besides its payload: the job's seed and the
    stream a CSV document is written to."""

    seed: int
    out: TextIO


class _Command(NamedTuple):
    schema: dict
    # returns the JSON document, or None when it wrote its own document
    handler: Callable[[dict, _Context], dict | None]


_COMMANDS: dict[str, _Command] = {}


def _command(name: str, schema: dict):
    """Enter the decorated handler into ``_COMMANDS`` under name.

    Handlers reach the library through this module's globals at call
    time, so a caller that patches ``cli.compress`` (the benchmark's
    tracer does) sees every call.
    """

    def enter(handler):
        _COMMANDS[name] = _Command(schema, handler)
        return handler

    return enter


@_command("roots", _POLY_PAYLOAD)
def _roots(payload: dict, ctx: _Context) -> dict:
    roots = find_roots(_parse_poly(payload["poly"]))
    return {"roots": [_pair(r) for r in roots]}


@_command("vieta", _closed({"roots": _POINTS}, "roots"))
def _vieta(payload: dict, ctx: _Context) -> dict:
    # finite roots can expand past the float range, and a Poly refuses a
    # non-finite coefficient as bad input; the expansion is returned as it
    # is, so such a result fails as JSON and exits 4 without NumPy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        return {"poly": _poly_doc(vieta_rows([_points(payload["roots"])])[0])}


@_command("stable-check", _closed({"poly": _POLY, "halfplane": _HALFPLANE}, "poly"))
def _stable_check(payload: dict, ctx: _Context) -> dict:
    p = _parse_poly(payload["poly"])
    H = _parse_halfplane(payload)
    return _verdict_doc(is_stable(p, H))


@_command("hurwitz-check", _COEFFICIENTS_PAYLOAD)
def _hurwitz_check(payload: dict, ctx: _Context) -> dict:
    p = _parse_real(payload["coefficients"])
    return _verdict_doc(is_weakly_hurwitz(p))


@_command("embed", _COEFFICIENTS_PAYLOAD)
def _embed(payload: dict, ctx: _Context) -> dict:
    return {"poly": _poly_doc(hurwitz_embed(_parse_real(payload["coefficients"])).z)}


@_command("unembed", _POLY_PAYLOAD)
def _unembed(payload: dict, ctx: _Context) -> dict:
    p = hurwitz_unembed(_parse_poly(payload["poly"]))
    raw = p.raw_coefficients()
    return {"coefficients": [float(v.real) for v in raw[1:]]}


@_command("bounds", _closed({
    "a1": _SCALAR,
    "a2": _SCALAR,
    "n": {"type": "integer", "minimum": 2},
}, "a1", "a2", "n"))
def _bounds(payload: dict, ctx: _Context) -> dict:
    result = compactness_bounds(_c(payload["a1"]), _c(payload["a2"]), payload["n"])
    if result is None:
        return {"empty": True}
    return {"empty": False, "im": [result.im_lo, result.im_hi],
            "re_sq_bound": result.re_sq_bound}


@_command("compress", _closed({
    "poly": _POLY,
    "slice": _SLICE,
    "halfplane": _HALFPLANE,
}, "poly", "slice"))
def _compress(payload: dict, ctx: _Context) -> dict:
    p = _parse_poly(payload["poly"])
    S = _parse_slice(payload["slice"])
    return _report_doc(compress(p, S, _parse_halfplane(payload), seed=ctx.seed))


@_command("gws", _closed({
    "f": _SYMPOLY,
    "x": _POINTS,
    "halfplane": _HALFPLANE,
}, "f", "x"))
def _gws(payload: dict, ctx: _Context) -> dict:
    f = _parse_sympoly(payload["f"])
    x = _points(payload["x"])
    y = gws_solve(f, x, _parse_halfplane(payload))
    residual = abs(eval_symmetric(f, (y,) * f.n) - eval_symmetric(f, x))
    return {"y": _pair(y), "residual": float(residual)}


@_command("coincide", _closed({
    "form": _closed({"matrix": _MATRIX, "gk": _terms("exponents")}, "matrix", "gk"),
    "x": _POINTS,
    "halfplane": _HALFPLANE,
}, "form", "x"))
def _coincide(payload: dict, ctx: _Context) -> dict:
    fdoc = payload["form"]
    form = SufficientForm.from_data(_parse_matrix(fdoc["matrix"]), _parse_terms(fdoc["gk"]))
    x = _points(payload["x"])
    H = _parse_halfplane(payload)
    x_tilde, report = coincide(form, x, H, seed=ctx.seed)
    final = report.final_profile
    return {
        "x_tilde": [_pair(v) for v in x_tilde],
        "value_in": _pair(eval_symmetric(form, x)),
        "value_out": _pair(eval_symmetric(form, x_tilde)),
        "profile": {"boundary_distinct": final.boundary_distinct,
                    "interior_count": final.interior_total},
        "report": _report_doc(report),
    }


@_command("young-gws", _closed({
    "blocks": _array(_POS_INT, 1),
    "f": _SYMPOLY,
    "block_terms": _terms("weights"),
    "x": _POINTS,
    "halfplane": _HALFPLANE,
}, "blocks", "x"))
def _young_gws(payload: dict, ctx: _Context) -> dict:
    blocks = tuple(payload["blocks"])
    if ("f" in payload) == ("block_terms" in payload):
        raise DimensionMismatch("provide exactly one of 'f' or 'block_terms'")
    if "f" in payload:
        f = _parse_sympoly(payload["f"])
    else:
        f = _parse_terms(payload["block_terms"], "weights")
    ys = young_gws(blocks, f, _points(payload["x"]), _parse_halfplane(payload))
    return {"y": [_pair(v) for v in ys]}


@_command("variety-search", _closed({
    "polys": _array(_SYMPOLY, 1),
    "halfplane": _HALFPLANE,
    "pattern": {"oneOf": [_POS_INT, _array(_NONNEG_INT, 2, 2)]},
    "budget": _POS_INT,
    "box": _BOX,
}, "polys"))
def _variety_search(payload: dict, ctx: _Context) -> dict:
    polys = [_parse_sympoly(d) for d in payload["polys"]]
    pat = payload.get("pattern")
    if pat is not None:
        pat = tuple(map(int, pat)) if isinstance(pat, list) else int(pat)
    box = tuple(payload["box"]) if "box" in payload else None
    outcome = variety_search(polys, _parse_halfplane(payload), pattern=pat,
                             seed=ctx.seed, box=box, **_int_options(payload, "budget"))
    if isinstance(outcome, FoundPoint):
        return {
            "found": True,
            "x": [_pair(v) for v in outcome.x],
            "residuals": [float(v) for v in outcome.residuals],
            "pattern": outcome.pattern,
            "starts_used": outcome.starts_used,
        }
    return {
        "found": False,
        "patterns_tried": outcome.patterns_tried,
        "starts": outcome.starts,
        # null when no start ran or none reached a finite residual norm
        "best_residual": outcome.best_residual
        if math.isfinite(outcome.best_residual) else None,
        "best_x": None if outcome.best_x is None
        else [_pair(v) for v in outcome.best_x],
        "note": outcome.note,
    }


@_command("halfdeg-opt", _closed({
    "f": _SYMPOLY,
    "lambda": _NUMBER,
    "mu": _NUMBER,
    "budget": _POS_INT,
    "box": _BOX,
}, "f", "lambda", "mu"))
def _halfdeg_opt(payload: dict, ctx: _Context) -> dict:
    f = _parse_sympoly(payload["f"])
    box = tuple(payload["box"]) if "box" in payload else None
    result = halfdeg_optimize(f, payload["lambda"], payload["mu"], seed=ctx.seed, box=box,
                              **_int_options(payload, "budget"))
    return {
        "k": result.k,
        "inf_full": None if result.full_unbounded else result.inf_full,
        "full_unbounded": result.full_unbounded,
        "witness_full": [_pair(v) for v in result.witness_full],
        "inf_restricted": None if result.restricted_unbounded else result.inf_restricted,
        "restricted_unbounded": result.restricted_unbounded,
        "witness_restricted": [_pair(v) for v in result.witness_restricted],
    }


@_command("slice-sample", _closed({
    "slice": _SLICE,
    "halfplane": _HALFPLANE,
    "free_axes": _array(_NONNEG_INT, 2, 2),
    "window": _array(_NUMBER, 4, 4),
    "resolution": _array(_POS_INT, 2, 2),
    "format": {"enum": ["csv", "json"]},
}, "slice", "free_axes", "window", "resolution"))
def _slice_sample(payload: dict, ctx: _Context) -> dict | None:
    S = _parse_slice(payload["slice"])
    grid = sample_slice_section(S, _parse_halfplane(payload),
                                tuple(map(int, payload["free_axes"])), tuple(payload["window"]),
                                tuple(map(int, payload["resolution"])))
    if payload.get("format", "csv") == "csv":
        emit_section_csv(grid, ctx.out)
        return None
    return {
        "xs": list(grid.xs),
        "ys": list(grid.ys),
        "members": [[1 if v else 0 for v in row] for row in grid.members],
    }


@_command("moebius", _closed({
    "map": _closed({"a": _SCALAR, "b": _SCALAR, "c": _SCALAR, "d": _SCALAR},
                   "a", "b", "c", "d"),
    "poly": _POLY,
}, "map", "poly"))
def _moebius(payload: dict, ctx: _Context) -> dict:
    mdoc = payload["map"]
    M = Moebius(a=_c(mdoc["a"]), b=_c(mdoc["b"]), c=_c(mdoc["c"]), d=_c(mdoc["d"]))
    image = moebius_transform_poly(M, _parse_poly(payload["poly"]))
    return {
        "coefficients": [_pair(v) for v in image.coefficients],
        "degree_drop": image.degree_drop,
    }


_JOB_SCHEMA = _closed({
    "command": {"enum": sorted(_COMMANDS)},
    "payload": {"type": "object"},
    "seed": _NONNEG_INT,
}, "command", "payload")


def _schema(command: str | None) -> dict:
    """One command's payload schema, or the job schema for None."""
    return _JOB_SCHEMA if command is None else _COMMANDS[command].schema


@functools.cache
def _validator(command: str | None):
    """jsonschema's validator of ``_schema(command)``, which words a rejection.

    Built on the first rejection, so the schema is checked against its
    meta-schema once per process rather than once per job.  jsonschema is
    imported here, not with this module: a process that runs only valid
    jobs never loads it.
    """
    from jsonschema.validators import validator_for

    schema = _schema(command)
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


# the Python types of the values json.loads returns, by the JSON type each
# stands for under draft 2020-12: a bool is no number, and a float with
# an integral value is an integer
_PY_TYPES = {None: (dict, list, str, int, float, bool, type(None)),
             "object": (dict,), "array": (list,),
             "number": (int, float), "integer": (int, float)}
_KEYWORDS = {"type", "properties", "required", "additionalProperties", "items",
             "minItems", "maxItems", "minimum", "enum", "const", "oneOf"}


def _all(checks: list) -> Callable[[object], bool]:
    if len(checks) == 1:
        return checks[0]
    return lambda v: all(check(v) for check in checks)


def _compile(schema: dict) -> Callable[[object], bool]:
    """Predicate that is true exactly when schema accepts a document of
    ``json.loads``, by the rules of draft 2020-12 (``validator_for``'s pick
    for these schemas, which name no ``$schema``).

    It knows only the keywords the schemas above use and raises on any
    other, and on an ``enum`` or ``const`` value that is not a string, so a
    schema edit cannot slip past it.  Each keyword ignores values of the
    types it does not constrain; a value of a type JSON does not have is
    refused.
    """
    kind = schema.get("type")
    if (schema.keys() - _KEYWORDS or kind not in _PY_TYPES
            or schema.get("additionalProperties", False) is not False):
        raise ValueError(f"no compiled check for {schema}")
    word_lists = [schema["enum"]] if "enum" in schema else []
    if "const" in schema:
        word_lists.append([schema["const"]])
    if not all(isinstance(w, str) for words in word_lists for w in words):
        raise ValueError(f"no compiled check for a word that is not a string in {schema}")
    # the checks of each Python type a valid value can have
    table = {t: [] for t in _PY_TYPES[kind] if t is str or not word_lists}
    if float in table and kind == "integer":
        table[float].append(float.is_integer)
    if dict in table and schema.keys() & {"properties", "required", "additionalProperties"}:
        properties = {key: _compile(sub) for key, sub in schema.get("properties", {}).items()}
        required = frozenset(schema.get("required", ()))
        closed = "additionalProperties" in schema

        def check_object(v) -> bool:
            if not v.keys() >= required or closed and not v.keys() <= properties.keys():
                return False
            return all(properties[key](x) for key, x in v.items() if key in properties)

        table[dict].append(check_object)
    if list in table and schema.keys() & {"items", "minItems", "maxItems"}:
        item = _compile(schema["items"]) if "items" in schema else None
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", math.inf)
        table[list].append(lambda v: lo <= len(v) <= hi and (item is None or all(map(item, v))))
    if "minimum" in schema:
        minimum = schema["minimum"]
        for t in table.keys() & {int, float}:
            table[t].append(lambda v: not v < minimum)
    if str in table and word_lists:
        words = frozenset.intersection(*map(frozenset, word_lists))
        table[str].append(words.__contains__)
    if "oneOf" in schema:
        branches = [_compile(sub) for sub in schema["oneOf"]]
        for checks in table.values():
            checks.append(lambda v: sum(branch(v) for branch in branches) == 1)
    # True: every value of the type is valid; False (absent): none is
    lookup = {t: _all(checks) if checks else True for t, checks in table.items()}.get

    def check(v) -> bool:
        found = lookup(type(v), False)
        return found is True or found is not False and found(v)

    return check


@functools.cache
def _accepts(command: str | None) -> Callable[[object], bool]:
    """The compiled check of ``_schema(command)``, built on first use."""
    return _compile(_schema(command))


def _validate(doc, command: str | None) -> None:
    """Raise the error ``jsonschema.validate`` would raise for doc.

    A valid job passes the compiled check and never imports jsonschema;
    only a document that check refuses is walked by ``_validator``, so
    every rejection keeps jsonschema's wording.
    """
    if _accepts(command)(doc):
        return
    from jsonschema.exceptions import best_match

    error = best_match(_validator(command).iter_errors(doc))
    if error is not None:
        raise error


def _validation_error() -> type[Exception]:
    """The class ``_validate`` raises.  ``main`` calls this in an ``except``
    clause, which is evaluated only once something is raised, so a valid
    job does not import jsonschema."""
    from jsonschema import ValidationError

    return ValidationError


def __getattr__(name: str):
    # ``cli.jsonschema``, imported on first access: bench/tracing.py reads
    # and patches it.  It goes with the benchmark change that drops the
    # ``cli.validate`` span, which nothing feeds (ROADMAP item 1).
    if name == "jsonschema":
        import jsonschema

        return jsonschema
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _finite_float(text: str) -> float:
    """json's float hook: a literal past the float range is an input error."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def _float_range_int(text: str) -> int:
    """json's int hook: an integer no float can hold is an input error."""
    value = int(text)
    if abs(value) > sys.float_info.max:
        raise ValueError(f"integer of {len(text)} digits is past the float range")
    return value


def _no_constant(name: str):
    """json's hook for NaN, Infinity and -Infinity, which JSON does not have."""
    raise ValueError(f"{name} is not a JSON number")


def _seed(text: str) -> int:
    """argparse type of ``--seed``: a non-negative integer in plain digits,
    as the job's ``seed`` field must be."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use like ``_accepts`` and
    ``_validator``; parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="stable-slices",
        description="batch operations on stable polynomial slices (JSON in, JSON/CSV out)")
    parser.add_argument("--job", help="job file (default: stdin)")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--seed", type=_seed, default=None)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.job:
            with open(args.job, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        job = json.loads(text, parse_float=_finite_float, parse_int=_float_range_int,
                         parse_constant=_no_constant)
    # JSONDecodeError is a ValueError, and nesting too deep a RecursionError
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read job: {exc}", file=sys.stderr)
        return 2

    try:
        _validate(job, None)
        _validate(job["payload"], job["command"])
    except _validation_error() as exc:
        print(f"error: invalid job: {exc.message}", file=sys.stderr)
        return 2

    seed = args.seed if args.seed is not None else int(job.get("seed", 0))

    out_stream = None
    try:
        out_stream = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: cannot open output: {exc}", file=sys.stderr)
        return 4

    ctx = _Context(seed=seed, out=out_stream)
    try:
        result = _COMMANDS[job["command"]].handler(job["payload"], ctx)
        if result is not None:
            try:
                text = json.dumps(result, sort_keys=True, allow_nan=False)
            except ValueError as exc:
                # a non-finite number in a result is a fault of the program,
                # not of the job, and nothing is written
                raise RuntimeError(f"result is not JSON: {exc}") from exc
            out_stream.write(text + "\n")
        code = 0
    except (NonConvergence, NoRootInRegion) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        code = 3
    except (DimensionMismatch, NonRealInput, NotInImage, DegenerateMap,
            ValueError, KeyError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        code = 2
    except Exception as exc:  # invariant violations surface as exit 4
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 4
    finally:
        try:
            if out_stream is not None:
                out_stream.flush()
                if args.out:
                    out_stream.close()
        except OSError:
            code = 4
    return code


if __name__ == "__main__":
    sys.exit(main())
