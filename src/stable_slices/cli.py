"""Batch command line interface: one JSON job in, one JSON/CSV document out.

Exit codes: 0 computed (including negative verdicts like NoneFound),
2 input validation failure, 3 numerical failure, 4 internal error.
Diagnostics go to stderr only; the output stream carries exactly one
document.  Complex numbers are [re, im] pairs; polynomial documents carry
the Vieta-signed z vector and an explicit convention tag.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import jsonschema
import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from .errors import (
    DegenerateMap,
    DimensionMismatch,
    NoRootInRegion,
    NonConvergence,
    NonRealInput,
    NotInImage,
)
from .polynomials import Poly, find_roots, vieta_from_roots
from .regions import HalfPlane, Moebius, moebius_transform_poly
from .slices import (
    CompressOptions,
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
    coordinate_profile,
    eval_symmetric,
    gws_solve,
    halfdeg_optimize,
    variety_search,
    young_gws,
)

_COMPLEX = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
_SCALAR = {"oneOf": [{"type": "number"}, _COMPLEX]}
_POLY = {
    "type": "object",
    "properties": {
        "z": {"type": "array", "items": _COMPLEX, "minItems": 1},
        "convention": {"const": "vieta-alternating"},
    },
    "required": ["z"],
    "additionalProperties": False,
}
_HALFPLANE = {
    "type": "object",
    "properties": {
        "theta": {"type": "number"},
        "base": _COMPLEX,
        "name": {"enum": ["upper", "left"]},
    },
    "additionalProperties": False,
}
_SLICE = {
    "type": "object",
    "properties": {
        "matrix": {"type": "array", "items": {"type": "array", "items": _SCALAR}},
        "target": {"type": "array", "items": _SCALAR},
    },
    "required": ["matrix", "target"],
    "additionalProperties": False,
}
_TERMS = {
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "exponents": {"type": "array", "items": {"type": "integer", "minimum": 0}},
            "coefficient": _SCALAR,
        },
        "required": ["exponents", "coefficient"],
        "additionalProperties": False,
    },
}
_SYMPOLY = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "degree": {"type": "integer", "minimum": 0},
        "terms": _TERMS,
    },
    "required": ["n", "degree", "terms"],
    "additionalProperties": False,
}
_REAL_COEFFS = {"type": "array", "items": {"type": "number"}, "minItems": 1}

_PAYLOADS = {
    "roots": {
        "type": "object",
        "properties": {"poly": _POLY},
        "required": ["poly"],
        "additionalProperties": False,
    },
    "vieta": {
        "type": "object",
        "properties": {"roots": {"type": "array", "items": _COMPLEX, "minItems": 1}},
        "required": ["roots"],
        "additionalProperties": False,
    },
    "stable-check": {
        "type": "object",
        "properties": {"poly": _POLY, "halfplane": _HALFPLANE},
        "required": ["poly"],
        "additionalProperties": False,
    },
    "hurwitz-check": {
        "type": "object",
        "properties": {"coefficients": _REAL_COEFFS},
        "required": ["coefficients"],
        "additionalProperties": False,
    },
    "embed": {
        "type": "object",
        "properties": {"coefficients": _REAL_COEFFS},
        "required": ["coefficients"],
        "additionalProperties": False,
    },
    "unembed": {
        "type": "object",
        "properties": {"poly": _POLY},
        "required": ["poly"],
        "additionalProperties": False,
    },
    "bounds": {
        "type": "object",
        "properties": {
            "a1": _SCALAR,
            "a2": _SCALAR,
            "n": {"type": "integer", "minimum": 2},
        },
        "required": ["a1", "a2", "n"],
        "additionalProperties": False,
    },
    "compress": {
        "type": "object",
        "properties": {
            "poly": _POLY,
            "slice": _SLICE,
            "halfplane": _HALFPLANE,
        },
        "required": ["poly", "slice"],
        "additionalProperties": False,
    },
    "gws": {
        "type": "object",
        "properties": {
            "f": _SYMPOLY,
            "x": {"type": "array", "items": _COMPLEX, "minItems": 1},
            "halfplane": _HALFPLANE,
        },
        "required": ["f", "x"],
        "additionalProperties": False,
    },
    "coincide": {
        "type": "object",
        "properties": {
            "form": {
                "type": "object",
                "properties": {
                    "matrix": {"type": "array", "items": {"type": "array", "items": _SCALAR}},
                    "gk": _TERMS,
                },
                "required": ["matrix", "gk"],
                "additionalProperties": False,
            },
            "x": {"type": "array", "items": _COMPLEX, "minItems": 1},
            "halfplane": _HALFPLANE,
        },
        "required": ["form", "x"],
        "additionalProperties": False,
    },
    "young-gws": {
        "type": "object",
        "properties": {
            "blocks": {"type": "array", "items": {"type": "integer", "minimum": 1},
                       "minItems": 1},
            "f": _SYMPOLY,
            "block_terms": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {
                        "weights": {"type": "array",
                                    "items": {"type": "integer", "minimum": 0}},
                        "coefficient": _SCALAR,
                    },
                    "required": ["weights", "coefficient"],
                    "additionalProperties": False,
                },
            },
            "x": {"type": "array", "items": _COMPLEX, "minItems": 1},
            "halfplane": _HALFPLANE,
        },
        "required": ["blocks", "x"],
        "additionalProperties": False,
    },
    "variety-search": {
        "type": "object",
        "properties": {
            "polys": {"type": "array", "items": _SYMPOLY, "minItems": 1},
            "halfplane": _HALFPLANE,
            "pattern": {"oneOf": [
                {"type": "integer", "minimum": 1},
                {"type": "array", "items": {"type": "integer", "minimum": 0},
                 "minItems": 2, "maxItems": 2},
            ]},
            "budget": {"type": "integer", "minimum": 1},
            "box": {"type": "array", "items": {"type": "number"},
                    "minItems": 3, "maxItems": 3},
        },
        "required": ["polys"],
        "additionalProperties": False,
    },
    "halfdeg-opt": {
        "type": "object",
        "properties": {
            "f": _SYMPOLY,
            "lambda": {"type": "number"},
            "mu": {"type": "number"},
            "budget": {"type": "integer", "minimum": 1},
            "box": {"type": "array", "items": {"type": "number"},
                    "minItems": 3, "maxItems": 3},
        },
        "required": ["f", "lambda", "mu"],
        "additionalProperties": False,
    },
    "slice-sample": {
        "type": "object",
        "properties": {
            "slice": _SLICE,
            "halfplane": _HALFPLANE,
            "free_axes": {"type": "array", "items": {"type": "integer", "minimum": 0},
                          "minItems": 2, "maxItems": 2},
            "window": {"type": "array", "items": {"type": "number"},
                       "minItems": 4, "maxItems": 4},
            "resolution": {"type": "array", "items": {"type": "integer", "minimum": 1},
                           "minItems": 2, "maxItems": 2},
            "format": {"enum": ["csv", "json"]},
        },
        "required": ["slice", "free_axes", "window", "resolution"],
        "additionalProperties": False,
    },
    "moebius": {
        "type": "object",
        "properties": {
            "map": {
                "type": "object",
                "properties": {"a": _SCALAR, "b": _SCALAR, "c": _SCALAR, "d": _SCALAR},
                "required": ["a", "b", "c", "d"],
                "additionalProperties": False,
            },
            "poly": _POLY,
        },
        "required": ["map", "poly"],
        "additionalProperties": False,
    },
}

_JOB_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"enum": sorted(_PAYLOADS)},
        "payload": {"type": "object"},
        "tolerances": {
            "type": "object",
            "properties": {
                "boundary": {"type": "number", "exclusiveMinimum": 0},
                "cluster": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "seed": {"type": "integer", "minimum": 0},
    },
    "required": ["command", "payload"],
    "additionalProperties": False,
}


@functools.cache
def _validator(command: str | None):
    """Validator of one command's payload schema, or of the job schema for None.

    Built on first use, so the schema is checked against its meta-schema
    once per process rather than once per job, and import stays cheap.
    """
    schema = _JOB_SCHEMA if command is None else _PAYLOADS[command]
    cls = validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(doc, command: str | None) -> None:
    """Raise the error ``jsonschema.validate`` would raise for doc."""
    error = best_match(_validator(command).iter_errors(doc))
    if error is not None:
        raise error


def _c(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    return complex(value[0], value[1])


def _pair(value: complex) -> list[float]:
    z = complex(value)
    return [float(z.real), float(z.imag)]


def _poly_doc(p: Poly) -> dict:
    return {"convention": "vieta-alternating", "z": [_pair(v) for v in p.z]}


def _parse_poly(doc) -> Poly:
    return Poly(tuple(_c(v) for v in doc["z"]))


def _parse_halfplane(doc) -> HalfPlane:
    if doc is None:
        return HalfPlane.upper()
    if "name" in doc:
        return HalfPlane.left() if doc["name"] == "left" else HalfPlane.upper()
    theta = float(doc.get("theta", 0.0))
    base = _c(doc.get("base", [0.0, 0.0]))
    return HalfPlane(theta=theta, base=base)


def _parse_slice(doc) -> Slice:
    matrix = [[_c(v) for v in row] for row in doc["matrix"]]
    target = [_c(v) for v in doc["target"]]
    if len(matrix) != len(target):
        raise DimensionMismatch("matrix rows and target length differ")
    width = len(matrix[0]) if matrix else 0
    return Slice.from_arrays(np.asarray(matrix, dtype=complex).reshape(len(target), width),
                             target)


def _parse_real(coefficients) -> Poly:
    """Monic polynomial from its real raw coefficients below the leading 1."""
    return Poly.from_raw(tuple([1.0] + [complex(v) for v in coefficients]))


def _parse_sympoly(doc) -> SymmetricPoly:
    terms = {tuple(t["exponents"]): _c(t["coefficient"]) for t in doc["terms"]}
    return SymmetricPoly.from_terms(doc["n"], terms, doc["degree"])


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
        "final_z": _poly_doc(report.final_z),
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


def _run_command(command: str, payload: dict, tolerances: dict, seed: int,
                 out_stream) -> dict | None:
    boundary = tolerances.get("boundary")
    cluster = tolerances.get("cluster")
    H = _parse_halfplane(payload.get("halfplane"))
    x = tuple(_c(v) for v in payload.get("x", ()))

    if command == "roots":
        p = _parse_poly(payload["poly"])
        roots = find_roots(p)
        return {"roots": [_pair(r) for r in roots]}

    if command == "vieta":
        roots = tuple(_c(v) for v in payload["roots"])
        return {"poly": _poly_doc(vieta_from_roots(roots))}

    if command == "stable-check":
        p = _parse_poly(payload["poly"])
        return _verdict_doc(is_stable(p, H, cluster_radius=cluster, boundary_tol=boundary))

    if command == "hurwitz-check":
        p = _parse_real(payload["coefficients"])
        return _verdict_doc(is_weakly_hurwitz(p, cluster_radius=cluster, boundary_tol=boundary))

    if command == "embed":
        return {"poly": _poly_doc(hurwitz_embed(_parse_real(payload["coefficients"])))}

    if command == "unembed":
        p = hurwitz_unembed(_parse_poly(payload["poly"]))
        raw = p.raw_coefficients()
        return {"coefficients": [float(v.real) for v in raw[1:]]}

    if command == "bounds":
        result = compactness_bounds(_c(payload["a1"]), _c(payload["a2"]), payload["n"])
        if result is None:
            return {"empty": True}
        return {"empty": False, "im": [result.im_lo, result.im_hi],
                "re_sq_bound": result.re_sq_bound}

    if command == "compress":
        p = _parse_poly(payload["poly"])
        S = _parse_slice(payload["slice"])
        opts = CompressOptions(functional_seed=seed, cluster_radius=cluster,
                               boundary_tol=boundary)
        return _report_doc(compress(p, S, H, opts))

    if command == "gws":
        f = _parse_sympoly(payload["f"])
        y = gws_solve(f, x, H)
        residual = abs(eval_symmetric(f, (y,) * f.n) - eval_symmetric(f, x))
        return {"y": _pair(y), "residual": float(residual)}

    if command == "coincide":
        fdoc = payload["form"]
        terms = {tuple(t["exponents"]): _c(t["coefficient"]) for t in fdoc["gk"]}
        matrix = [[_c(v) for v in row] for row in fdoc["matrix"]]
        form = SufficientForm.from_data(matrix, terms)
        x_tilde, report = coincide(form, x, H,
                                   CompressOptions(functional_seed=seed,
                                                   cluster_radius=cluster,
                                                   boundary_tol=boundary))
        prof = coordinate_profile(x_tilde, H)
        return {
            "x_tilde": [_pair(v) for v in x_tilde],
            "value_in": _pair(eval_symmetric(form, x)),
            "value_out": _pair(eval_symmetric(form, x_tilde)),
            "profile": {"boundary_distinct": prof.boundary_distinct,
                        "interior_count": prof.interior_count},
            "report": _report_doc(report),
        }

    if command == "young-gws":
        blocks = tuple(payload["blocks"])
        if ("f" in payload) == ("block_terms" in payload):
            raise DimensionMismatch("provide exactly one of 'f' or 'block_terms'")
        if "f" in payload:
            f = _parse_sympoly(payload["f"])
        else:
            f = {tuple(t["weights"]): _c(t["coefficient"])
                 for t in payload["block_terms"]}
        ys = young_gws(blocks, f, x, H)
        return {"y": [_pair(v) for v in ys]}

    if command == "variety-search":
        polys = [_parse_sympoly(d) for d in payload["polys"]]
        pat = payload.get("pattern")
        if isinstance(pat, list):
            pat = (pat[0], pat[1])
        box = tuple(payload["box"]) if "box" in payload else None
        outcome = variety_search(polys, H, pattern=pat,
                                 budget=payload.get("budget", 200),
                                 seed=seed, box=box)
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

    if command == "halfdeg-opt":
        f = _parse_sympoly(payload["f"])
        box = tuple(payload["box"]) if "box" in payload else None
        result = halfdeg_optimize(f, payload["lambda"], payload["mu"],
                                  budget=payload.get("budget", 20), seed=seed, box=box)
        return {
            "k": result.k,
            "inf_full": None if result.full_unbounded else result.inf_full,
            "full_unbounded": result.full_unbounded,
            "witness_full": [_pair(v) for v in result.witness_full],
            "inf_restricted": None if result.restricted_unbounded else result.inf_restricted,
            "restricted_unbounded": result.restricted_unbounded,
            "witness_restricted": [_pair(v) for v in result.witness_restricted],
        }

    if command == "slice-sample":
        S = _parse_slice(payload["slice"])
        grid = sample_slice_section(S, H, tuple(payload["free_axes"]),
                                    tuple(payload["window"]),
                                    tuple(payload["resolution"]))
        if payload.get("format", "csv") == "csv":
            emit_section_csv(grid, out_stream)
            return None
        return {
            "xs": list(grid.xs),
            "ys": list(grid.ys),
            "members": [[1 if v else 0 for v in row] for row in grid.members],
        }

    if command == "moebius":
        mdoc = payload["map"]
        M = Moebius(a=_c(mdoc["a"]), b=_c(mdoc["b"]), c=_c(mdoc["c"]), d=_c(mdoc["d"]))
        image = moebius_transform_poly(M, _parse_poly(payload["poly"]))
        return {
            "coefficients": [_pair(v) for v in image.coefficients],
            "degree_drop": image.degree_drop,
        }

    raise ValueError(f"unhandled command {command}")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stable-slices",
        description="batch operations on stable polynomial slices (JSON in, JSON/CSV out)")
    parser.add_argument("--job", help="job file (default: stdin)")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        if args.job:
            with open(args.job, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
        job = json.loads(text, parse_float=_finite_float, parse_int=_float_range_int,
                         parse_constant=_no_constant)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: cannot read job: {exc}", file=sys.stderr)
        return 2

    try:
        _validate(job, None)
        _validate(job["payload"], job["command"])
    except jsonschema.ValidationError as exc:
        print(f"error: invalid job: {exc.message}", file=sys.stderr)
        return 2

    tolerances = job.get("tolerances", {})
    seed = args.seed if args.seed is not None else job.get("seed", 0)

    out_stream = None
    try:
        out_stream = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        print(f"error: cannot open output: {exc}", file=sys.stderr)
        return 4

    try:
        result = _run_command(job["command"], job["payload"], tolerances, seed, out_stream)
        if result is not None:
            result["tolerances"] = {
                "boundary": tolerances.get("boundary"),
                "cluster": tolerances.get("cluster"),
            }
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
