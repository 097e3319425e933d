"""End-to-end checks of the JSON batch interface."""

import copy
import io
import json
import pathlib
import subprocess
import sys
import textwrap
import types

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from jsonschema.validators import validator_for

from stable_slices import HalfPlane, cli, vieta_from_roots
from stable_slices.cli import _COMMANDS, _JOB_SCHEMA, _validate, main
from stable_slices.polynomials import BOUNDARY_SCALE
from stable_slices.slices import membership_tolerance

FLAGSHIP_Z = [[0.0, 23.0], [-463.0, 0.0], [0.0, -8461.0], [8020.0, 0.0]]

# compress jobs of degree 20, 24 and 32 as the benchmark's job generator
# draws them from default_rng([77, n]), stored verbatim
SWEEP_JOBS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "compress_sweep_jobs.json").read_text())
# the variety-search jobs of the benchmark's search workload at seed 1,
# stored verbatim with the verdict each gave before the Gauss-Newton steps
# used the exact Jacobian: found, pattern and starts_used, or, when
# nothing was found, patterns_tried and starts
SEARCH_VERDICTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "search_verdicts.json").read_text())
# the halfdeg-opt jobs of the benchmark's search workload at seed 1, stored
# verbatim with the infima and unbounded flags each gave while the descent
# took its gradient by forward differences
HALFDEG_VERDICTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "halfdeg_verdicts.json").read_text())

E1_MINUS_1 = {"n": 2, "degree": 1, "terms": [{"exponents": [1], "coefficient": 1},
                                             {"exponents": [0], "coefficient": -1}]}
# one payload each command computes with exit 0
EXAMPLE_PAYLOADS = {
    "roots": {"poly": {"z": FLAGSHIP_Z}},
    "vieta": {"roots": [[0, 1], [0, 2]]},
    "stable-check": {"poly": {"z": FLAGSHIP_Z}, "halfplane": {"theta": 0.3, "base": [0.1, 0]}},
    "hurwitz-check": {"coefficients": [4, 6, 4]},
    "embed": {"coefficients": [4, 6, 4]},
    "unembed": {"poly": {"z": [[0, 4], [-6, 0], [0, -4]]}},
    "bounds": {"a1": [0, 23], "a2": [-463, 0], "n": 4},
    "compress": {"poly": {"z": FLAGSHIP_Z},
                 "slice": {"matrix": [[1, 0, 0, 0]], "target": [[0, 23]]}},
    "gws": {"f": {"n": 2, "degree": 2, "terms": [{"exponents": [0, 1], "coefficient": 1}]},
            "x": [[0, 2], [0, 8]]},
    "coincide": {"form": {"matrix": [[1, 0, 0, 0]],
                          "gk": [{"exponents": [2], "coefficient": 1}]},
                 "x": [[0, 1], [0, 2], [1, 1], [-1, 2]]},
    "young-gws": {"blocks": [1, 1], "x": [[0, 1], [1, 1]],
                  "f": {"n": 2, "degree": 1, "terms": [{"exponents": [1], "coefficient": 1}]}},
    "variety-search": {"polys": [E1_MINUS_1], "pattern": [1, 0], "budget": 5},
    "halfdeg-opt": {"f": E1_MINUS_1, "lambda": 0.0, "mu": 1.0, "budget": 4},
    "slice-sample": {"slice": {"matrix": [[0, 1]], "target": [-1]}, "free_axes": [0, 1],
                     "window": [-1, 1, 0, 1], "resolution": [3, 2]},
    "moebius": {"map": {"a": 1, "b": 1, "c": 0, "d": 1}, "poly": {"z": [[0, 0], [1, 0]]}},
}


# edge cases of draft 2020-12 and of oneOf for the schema checks, valid or not
PINNED_JOBS = {
    "bool-for-number": {"command": "halfdeg-opt",
                        "payload": {**EXAMPLE_PAYLOADS["halfdeg-opt"], "lambda": True}},
    "float-n": {"command": "variety-search", "payload": {"polys": [{**E1_MINUS_1, "n": 2.0}]}},
    "negative-budget": {"command": "variety-search",
                        "payload": {"polys": [E1_MINUS_1], "budget": -1}},
    "pair-pattern": {"command": "variety-search",
                     "payload": {"polys": [E1_MINUS_1], "pattern": [1, 2]}},
    "integer-pattern": {"command": "variety-search",
                        "payload": {"polys": [E1_MINUS_1], "pattern": 3}},
    "unknown-halfplane-key": {"command": "stable-check", "payload": {
        "poly": {"z": FLAGSHIP_Z}, "halfplane": {"theta": 0.3, "frobnicate": 1}}},
    "wrong-convention": {"command": "roots",
                         "payload": {"poly": {"z": FLAGSHIP_Z, "convention": "raw"}}},
}
# the documents schema mutations start from: every command's example and
# the benchmark's search and compress jobs stored under tests/data
VALID_JOBS = [
    *({"command": command, "payload": payload} for command, payload in EXAMPLE_PAYLOADS.items()),
    *(entry["job"] for entry in SEARCH_VERDICTS),
    *SWEEP_JOBS.values(),
]
# replacement values: each JSON type, an integral float, a negative
# integer, the empty containers and a pair with a third number
REPLACEMENTS = [True, None, "x", "left", 2.0, -1, 1.5, [], {}, [1.0, 2.0, 3.0]]
NEW_KEYS = ["frobnicate", "seed", "name", "theta", "base", "halfplane", "convention",
            "budget", "pattern", "box", "format"]


def _places(holder: list) -> list:
    """(container, key) of every value in the document holder[0], itself included."""
    places, stack = [], [holder]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node)) \
            if isinstance(node, list) else ()
        places.extend((node, key) for key in keys)
        stack.extend(node[key] for key in keys)
    return places


@st.composite
def mutated_jobs(draw):
    """A valid job with up to three mutations: a key dropped or added, an
    array item appended, or a value replaced."""
    holder = [copy.deepcopy(draw(st.sampled_from(VALID_JOBS)))]
    for _ in range(draw(st.integers(0, 3))):
        node, key = draw(st.sampled_from(_places(holder)))
        value = node[key]
        ops = ["replace"] + (["drop", "add"] if isinstance(value, dict) else []) \
            + (["append"] if isinstance(value, list) else [])
        op = draw(st.sampled_from(ops))
        new = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        if op == "replace":
            node[key] = new
        elif op == "drop" and value:
            del value[draw(st.sampled_from(sorted(value)))]
        elif op == "add":
            value[draw(st.sampled_from(NEW_KEYS))] = new
        elif op == "append":
            value.append(copy.deepcopy(value[0]) if value and draw(st.booleans()) else new)
    return holder[0]


def run_job(tmp_path, job, args=()):
    jf = tmp_path / "job.json"
    of = tmp_path / "out.txt"
    jf.write_text(json.dumps(job))
    code = main(["--job", str(jf), "--out", str(of), *args])
    text = of.read_text() if of.exists() else ""
    return code, text


def run_json(tmp_path, job, args=()):
    code, text = run_job(tmp_path, job, args)
    assert code == 0, text
    return json.loads(text)


class TestRoots:
    def test_quadratic(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "roots",
            "payload": {"poly": {"z": [[0, 0], [1, 0]],
                                 "convention": "vieta-alternating"}},
        })
        assert doc == {"roots": [[0.0, -1.0], [0.0, 1.0]]}

    def test_result_shape_validates(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "roots",
            "payload": {"poly": {"z": FLAGSHIP_Z}},
        })
        schema = {
            "type": "object",
            "properties": {
                "roots": {"type": "array",
                          "items": {"type": "array",
                                    "items": {"type": "number"},
                                    "minItems": 2, "maxItems": 2}},
            },
            "required": ["roots"],
            "additionalProperties": False,
        }
        jsonschema.validate(doc, schema)
        assert len(doc["roots"]) == 4


class TestVieta:
    def test_two_roots(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "vieta",
            "payload": {"roots": [[0, 1], [0, 2]]},
        })
        assert doc["poly"]["convention"] == "vieta-alternating"
        assert np.allclose(doc["poly"]["z"], [[0.0, 3.0], [-2.0, 0.0]])


class TestStableCheck:
    def test_flagship(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "stable-check",
            "payload": {"poly": {"z": FLAGSHIP_Z}},
        })
        assert doc["stable"] is True
        assert doc["profile"]["outside_total"] == 0
        assert doc["profile"]["interior_total"] == 4
        assert len(doc["witness_roots"]) == 4

    def test_unstable(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "stable-check",
            "payload": {"poly": {"z": [[0, -1]]}},
        })
        assert doc["stable"] is False
        assert doc["profile"]["outside_total"] == 1

    def test_named_halfplane(self, tmp_path):
        # the root 1 lies on the real axis, outside the closed left half-plane
        payload = {"poly": {"z": [[1, 0]]}, "halfplane": {"name": "left"}}
        doc = run_json(tmp_path, {"command": "stable-check", "payload": payload})
        assert doc["stable"] is False

    @pytest.mark.parametrize("extra", [{"theta": 3.0, "base": [0, 5]}, {"theta": 0.0},
                                       {"base": [0, 0]}])
    def test_name_with_theta_or_base_exits_2(self, tmp_path, capsys, extra):
        # the name would override the numbers; a key is refused, not ignored
        code, text = run_job(tmp_path, {
            "command": "stable-check",
            "payload": {"poly": {"z": FLAGSHIP_Z}, "halfplane": {"name": "upper", **extra}},
        })
        assert code == 2
        assert text == ""
        assert "invalid input" in capsys.readouterr().err


class TestHurwitzCommands:
    def test_embed_unembed_round_trip(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "embed",
            "payload": {"coefficients": [4, 6, 4]},
        })
        assert np.allclose(doc["poly"]["z"],
                           [[0.0, 4.0], [-6.0, 0.0], [0.0, -4.0]])
        back = run_json(tmp_path, {
            "command": "unembed",
            "payload": {"poly": doc["poly"]},
        })
        assert back["coefficients"] == pytest.approx([4.0, 6.0, 4.0])

    def test_hurwitz_check(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "hurwitz-check",
            "payload": {"coefficients": [4, 6, 4]},
        })
        assert doc["stable"] is True and doc["strict"] is True


class TestBounds:
    def test_flagship_window(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "bounds",
            "payload": {"a1": [0, 23], "a2": [-463, 0], "n": 4},
        })
        assert doc["empty"] is False
        assert doc["im"] == pytest.approx([0.0, 23.0])
        assert doc["re_sq_bound"] == pytest.approx(2513.0)

    def test_empty_slice(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "bounds",
            "payload": {"a1": [0, 2], "a2": [10, 0], "n": 2},
        })
        assert doc == {"empty": True}


class TestCompress:
    def test_triple_root_instance(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "compress",
            "payload": {
                "poly": {"z": [[6, 0], [11, 0], [6, 0]]},
                "slice": {"matrix": [[1, 0, 0]], "target": [6]},
            },
        })
        z = doc["final_z"]["z"]
        assert z[0] == pytest.approx([6.0, 0.0], abs=1e-9)
        assert z[1] == pytest.approx([11.0, 0.0], abs=1e-8)
        assert z[2][0] == pytest.approx(6.384900179459756, abs=1e-8)
        assert doc["final_profile"]["boundary_distinct"] == 2
        assert doc["final_profile"]["interior_total"] == 0
        assert doc["checkpoints"] == [[0, 3], [0, 2]]
        for step in doc["steps"]:
            assert step["stable"] is True

    # Rotated half-planes: the first four exited 0 with final_z off the
    # slice by up to 8.8e-6 while the descent ran in an upper-half-plane
    # coefficient chart; the fifth stopped at (4, 20) against (4, 8).  The
    # boundary walk of the degree-32 job 30 ends its first two descent
    # modes at the step-cap floor and finishes in a gap-closing mode; job
    # 55 stopped at (4, 22) with "could not project a merge" while a failed
    # projection was retried along the same direction at quarter steps
    @pytest.mark.parametrize("name", [
        "compress-15-n20-k1-prefix",
        "compress-25-n20-k2-coords",
        "compress-30-n20-k1-prefix",
        "compress-30-n24-k1-prefix",
        "compress-10-n24-k2-coords",
        "compress-30-n32-k1-prefix",
        "compress-55-n32-k2-coords",
    ])
    def test_sweep_job_stays_on_the_slice(self, tmp_path, name):
        job = SWEEP_JOBS[name]
        payload = job["payload"]
        doc = run_json(tmp_path, job)
        L = np.array([[complex(*v) for v in row] for row in payload["slice"]["matrix"]])
        a = np.array([complex(*v) for v in payload["slice"]["target"]])
        z = np.array([complex(*v) for v in doc["final_z"]["z"]])
        assert np.max(np.abs(L @ z - a)) <= membership_tolerance(a)
        H = HalfPlane(payload["halfplane"]["theta"], complex(*payload["halfplane"]["base"]))
        profile = doc["final_profile"]
        centers = [complex(*cl["center"]) for cl in profile["clusters"]]
        btol = BOUNDARY_SCALE * (1.0 + max(abs(c) for c in centers))
        assert min(H.signed_distance(c) for c in centers) >= -btol
        roots = [c for c, cl in zip(centers, profile["clusters"])
                 for _ in range(cl["multiplicity"])]
        assert np.allclose(vieta_from_roots(roots).z, z, rtol=0.0, atol=1e-7 * (1.0 + np.abs(z)))
        targets = doc["targets"]
        assert profile["interior_total"] <= targets[0]
        assert profile["boundary_distinct"] <= targets[1]

    def test_stalled_descent_exits_3(self, tmp_path, capsys):
        # upper half-plane; the boundary walk cannot project its first
        # state onto the slice and used to exit 0 at (4, 20)
        code, text = run_job(tmp_path, SWEEP_JOBS["compress-34-n24-k2-coords"])
        assert code == 3
        assert text == ""
        err = capsys.readouterr().err
        assert "measure (4, 20) above targets (4, 8)" in err

    def test_root_finder_fault_on_a_stable_start_exits_3(self, tmp_path, capsys):
        # every exact root of this degree-32 start lies within boundary_tol
        # of the line, but find_roots puts one outside; the Hermite test
        # cannot tell either, so the start is not refused as unstable
        code, text = run_job(tmp_path, SWEEP_JOBS["compress-47-n32-k3-dense"])
        assert code == 3
        assert text == ""
        assert "Hermite test does not confirm it" in capsys.readouterr().err

    @pytest.mark.parametrize("roots, halfplane", [
        ((1j, 2j, -1j), None),
        ((1 + 1j, -0.5j, 2), None),
        ((-1, -2 + 1j, 0.5), {"name": "left"}),
    ])
    def test_unstable_start_exits_2(self, tmp_path, capsys, roots, halfplane):
        z = vieta_from_roots(roots).z
        payload = {"poly": {"z": [[v.real, v.imag] for v in z]},
                   "slice": {"matrix": [[1, 0, 0]], "target": [[z[0].real, z[0].imag]]}}
        if halfplane is not None:
            payload["halfplane"] = halfplane
        code, text = run_job(tmp_path, {"command": "compress", "payload": payload})
        assert code == 2
        assert text == ""
        assert "starting point is not stable" in capsys.readouterr().err


class TestGws:
    def test_e2_example(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "gws",
            "payload": {
                "f": {"n": 2, "degree": 2,
                      "terms": [{"exponents": [0, 1], "coefficient": [1, 0]}]},
                "x": [[0, 2], [0, 8]],
            },
        })
        assert doc["y"] == pytest.approx([0.0, 4.0])
        assert doc["residual"] <= 1e-10


class TestCoincide:
    def test_square_of_e1(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "coincide",
            "payload": {
                "form": {"matrix": [[1, 0, 0, 0]],
                         "gk": [{"exponents": [2], "coefficient": 1}]},
                "x": [[0, 1], [0, 2], [1, 1], [-1, 2]],
            },
        })
        assert len(doc["x_tilde"]) == 4
        value_in = complex(*doc["value_in"])
        assert value_in == pytest.approx(-36.0)  # e1 = 6i
        assert abs(complex(*doc["value_out"]) - value_in) <= 1e-6 * (1.0 + abs(value_in))
        assert doc["profile"]["boundary_distinct"] <= 6
        assert doc["profile"]["interior_count"] <= 3
        assert doc["report"]["final_profile"]["outside_total"] == 0

    def test_profile_is_the_final_profile(self, tmp_path):
        # e1 on five points, three of them on the real line; a job-set
        # cluster radius of 0.05 once ended this at 0 steps with the report
        # at (2, 2) and the profile at three distinct boundary values
        doc = run_json(tmp_path, {
            "command": "coincide",
            "payload": {
                "form": {"matrix": [[1, 0, 0, 0, 0]],
                         "gk": [{"exponents": [1], "coefficient": 1}]},
                "x": [[0, 0], [0.04, 0], [1, 0], [2, 1], [3, 1]],
            },
        })
        final = doc["report"]["final_profile"]
        assert doc["profile"] == {"boundary_distinct": final["boundary_distinct"],
                                  "interior_count": final["interior_total"]}
        assert doc["profile"] == {"boundary_distinct": 2, "interior_count": 2}
        assert len(doc["report"]["steps"]) == 1
        real = sorted({v[0] for v in doc["x_tilde"] if v[1] == 0.0})
        assert len(real) == 2
        assert real[0] == pytest.approx(0.0198, abs=1e-4)


class TestYoungGws:
    def test_block_terms(self, tmp_path):
        # e2 of each block: x1 x2 + x3 x4 at (i, 4i, 2i, 8i)
        doc = run_json(tmp_path, {
            "command": "young-gws",
            "payload": {
                "blocks": [2, 2],
                "block_terms": [{"weights": [2, 0], "coefficient": 1},
                                {"weights": [0, 2], "coefficient": 1}],
                "x": [[0, 1], [0, 4], [0, 2], [0, 8]],
            },
        })
        assert np.allclose(doc["y"], [[0.0, 2.0], [0.0, 4.0]])

    def test_symmetric_f(self, tmp_path):
        # f = e1 on one block of three is the plain GWS mean
        doc = run_json(tmp_path, {
            "command": "young-gws",
            "payload": {
                "blocks": [3],
                "f": {"n": 3, "degree": 1,
                      "terms": [{"exponents": [1, 0, 0], "coefficient": 1}]},
                "x": [[0, 1], [0, 2], [0, 3]],
            },
        })
        assert np.allclose(doc["y"], [[0.0, 2.0]])

    def test_f_and_block_terms_exit_2(self, tmp_path, capsys):
        code, text = run_job(tmp_path, {
            "command": "young-gws",
            "payload": {
                "blocks": [3],
                "f": {"n": 3, "degree": 1,
                      "terms": [{"exponents": [1, 0, 0], "coefficient": 1}]},
                "block_terms": [{"weights": [1], "coefficient": 1}],
                "x": [[0, 1], [0, 2], [0, 3]],
            },
        })
        assert code == 2
        assert text == ""
        assert "exactly one of 'f' or 'block_terms'" in capsys.readouterr().err


class TestSliceSample:
    def test_csv_bytes(self, tmp_path):
        code, text = run_job(tmp_path, {
            "command": "slice-sample",
            "payload": {
                "slice": {"matrix": [[0, 1]], "target": [-1]},
                "free_axes": [0, 1],
                "window": [0, 0, 0, 0],
                "resolution": [1, 1],
            },
        })
        assert code == 0
        assert text == "x,y,member\n0.0,0.0,1\n"

    def test_json_format(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "slice-sample",
            "payload": {
                "slice": {"matrix": [[0, 1]], "target": [-1]},
                "free_axes": [0, 1],
                "window": [-1, 1, -5, -2],
                "resolution": [3, 2],
                "format": "json",
            },
        })
        assert doc["xs"] == [-1.0, 0.0, 1.0]
        assert doc["members"] == [[0, 0, 0], [0, 0, 0]]


class TestMoebius:
    def test_shift(self, tmp_path):
        doc = run_json(tmp_path, {
            "command": "moebius",
            "payload": {
                "map": {"a": [1, 0], "b": [1, 0], "c": [0, 0], "d": [1, 0]},
                "poly": {"z": [[0, 0], [1, 0]]},
            },
        })
        # T^2 + 1 under T -> T + 1 becomes T^2 + 2T + 2
        assert doc["degree_drop"] == 0
        assert np.allclose(doc["coefficients"],
                           [[1.0, 0.0], [2.0, 0.0], [2.0, 0.0]])


class TestValidation:
    def test_unknown_command(self, tmp_path):
        code, text = run_job(tmp_path, {"command": "frobnicate", "payload": {}})
        assert code == 2
        assert text == ""

    def test_bad_field_value(self, tmp_path):
        code, _ = run_job(tmp_path, {
            "command": "compress",
            "payload": {
                "poly": {"z": [[6, 0], [11, 0], [6, 0]]},
                "slice": {"matrix": [[1, 0, 0]], "target": [6],
                          "field": "quaternion"},
            },
        })
        assert code == 2

    def test_runtime_dimension_error(self, tmp_path):
        # free axis 2 touches z2, which the slice pins
        code, _ = run_job(tmp_path, {
            "command": "slice-sample",
            "payload": {
                "slice": {"matrix": [[0, 1]], "target": [-1]},
                "free_axes": [2, 3],
                "window": [0, 0, 0, 0],
                "resolution": [1, 1],
            },
        })
        assert code == 2

    def test_malformed_json(self, tmp_path):
        jf = tmp_path / "bad.json"
        jf.write_text("{not json")
        assert main(["--job", str(jf)]) == 2

    # Python's json reads the literals NaN, Infinity and -Infinity, which
    # JSON does not have, reads 1e400 as inf and keeps a 401-digit integer
    # that no float can hold; each of these jobs got past the schema into a
    # crash, a NaN result or a wrong verdict
    _E1_MINUS_1 = ('{"n": 2, "degree": 1, "terms": [{"exponents": [1], "coefficient": 1},'
                   ' {"exponents": [0], "coefficient": -1}]}')
    NON_FINITE_JOBS = [
        '{"command": "variety-search", "payload": {"polys": [%s], "box": [NaN, 1, 1]}}'
        % _E1_MINUS_1,
        '{"command": "bounds", "payload": {"a1": NaN, "a2": 1, "n": 3}}',
        '{"command": "moebius", "payload": {"map": {"a": 1, "b": 0, "c": 0, "d": NaN},'
        ' "poly": {"z": [[0, 1]]}}}',
        '{"command": "halfdeg-opt", "payload": {"f": %s, "lambda": -Infinity, "mu": 0}}'
        % _E1_MINUS_1,
        '{"command": "stable-check", "payload": {"poly": {"z": [[0, 1.9], [Infinity, 0]]}}}',
        '{"command": "bounds", "payload": {"a1": 1e400, "a2": 1, "n": 3}}',
        '{"command": "bounds", "payload": {"a1": 1%s, "a2": 1, "n": 3}}' % ("0" * 400),
    ]

    @pytest.mark.parametrize("text", NON_FINITE_JOBS, ids=[
        "search-box-nan", "bounds-nan", "moebius-nan", "halfdeg-minus-infinity",
        "stable-check-z-infinity", "bounds-1e400", "bounds-huge-integer"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, text):
        jf = tmp_path / "job.json"
        jf.write_text(text)
        assert main(["--job", str(jf)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot read job" in err

    def test_tolerances_key_exits_2(self, tmp_path, capsys):
        # every cluster and boundary tolerance is the scale-relative
        # default; a job that tries to set one is refused
        jf = tmp_path / "job.json"
        jf.write_text(json.dumps({"command": "stable-check",
                                  "payload": EXAMPLE_PAYLOADS["stable-check"],
                                  "tolerances": {"cluster": 0.05}}))
        assert main(["--job", str(jf)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid job" in err and "'tolerances' was unexpected" in err

    def test_schemas_pass_the_meta_schema(self):
        for schema in [_JOB_SCHEMA, *(entry.schema for entry in _COMMANDS.values())]:
            validator_for(schema).check_schema(schema)

    def test_cached_validators_raise_the_same_errors(self):
        jobs = [
            {"command": "frobnicate", "payload": {}},
            {"command": "roots"},
            {"command": "roots", "payload": {"poly": {"z": []}}},
            {"command": "bounds", "payload": {"a1": 1, "a2": [1, 2, 3], "n": 1}},
            {"command": "variety-search",
             "payload": {"polys": [{"n": 2, "degree": 1, "terms": []}], "budget": 0}},
            *({"command": command, "payload": {**payload, "frobnicate": 1}}
              for command, payload in EXAMPLE_PAYLOADS.items()),
            *PINNED_JOBS.values(),
        ]
        rejected = 0
        for job in jobs:
            expected = got = None
            try:
                jsonschema.validate(job, _JOB_SCHEMA)
                jsonschema.validate(job["payload"], _COMMANDS[job["command"]].schema)
            except jsonschema.ValidationError as exc:
                expected = exc.message
            try:
                _validate(job, None)
                _validate(job["payload"], job["command"])
            except jsonschema.ValidationError as exc:
                got = exc.message
            assert got == expected, job
            rejected += expected is not None
        assert rejected == len(jobs) - 3  # 2.0 for n and both valid patterns pass

    @given(mutated_jobs())
    @example(PINNED_JOBS["bool-for-number"])
    @example(PINNED_JOBS["float-n"])
    @example(PINNED_JOBS["negative-budget"])
    @example(PINNED_JOBS["pair-pattern"])
    @example(PINNED_JOBS["integer-pattern"])
    @example(PINNED_JOBS["unknown-halfplane-key"])
    @example(PINNED_JOBS["wrong-convention"])
    def test_compiled_check_agrees_with_jsonschema(self, job):
        def agree(doc, command):
            schema = _JOB_SCHEMA if command is None else _COMMANDS[command].schema
            valid = validator_for(schema)(schema).is_valid(doc)
            assert cli._accepts(command)(doc) == valid, (command, doc)

        agree(job, None)
        command = job.get("command") if isinstance(job, dict) else None
        if isinstance(command, str) and command in _COMMANDS and "payload" in job:
            agree(job["payload"], command)

    def test_compiler_refuses_what_it_does_not_know(self):
        for schema in [{"type": "string", "pattern": "^a"}, {"anyOf": [{"type": "number"}]},
                       {"type": "string"}, {"enum": ["a", 1]}, {"const": 0},
                       {"type": "object", "additionalProperties": {"type": "number"}},
                       {"type": "array", "items": {"type": "number", "maximum": 1}}]:
            with pytest.raises(ValueError):
                cli._compile(schema)
        for schema in [_JOB_SCHEMA, *(entry.schema for entry in _COMMANDS.values())]:
            assert callable(cli._compile(schema))

    def test_invalid_job_exits_2_with_jsonschema_patched(self, tmp_path, monkeypatch, capsys):
        # bench/tracing.py swaps the module global for a namespace of these two
        monkeypatch.setattr(cli, "jsonschema", types.SimpleNamespace(
            validate=jsonschema.validate, ValidationError=jsonschema.ValidationError))
        jf = tmp_path / "job.json"
        jf.write_text(json.dumps({"command": "roots", "payload": EXAMPLE_PAYLOADS["roots"]}))
        assert main(["--job", str(jf)]) == 0
        capsys.readouterr()
        jf.write_text(json.dumps(PINNED_JOBS["wrong-convention"]))
        assert main(["--job", str(jf)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "invalid job" in err and "'vieta-alternating' was expected" in err


class TestCommandTable:
    def test_every_command_has_an_example(self):
        assert set(EXAMPLE_PAYLOADS) == set(_COMMANDS)

    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    def test_unknown_payload_key_exits_2(self, tmp_path, capsys, command):
        jf = tmp_path / "job.json"
        jf.write_text(json.dumps({"command": command, "payload": EXAMPLE_PAYLOADS[command]}))
        assert main(["--job", str(jf)]) == 0
        capsys.readouterr()
        payload = {**EXAMPLE_PAYLOADS[command], "frobnicate": 1}
        jf.write_text(json.dumps({"command": command, "payload": payload}))
        assert main(["--job", str(jf)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "'frobnicate' was unexpected" in err

    def test_handlers_call_the_names_the_tracer_patches(self, tmp_path, monkeypatch):
        # bench/tracing.py replaces these module globals of cli for a traced
        # run; a handler holding its own reference would bypass the spans
        users = {"find_roots": "roots", "is_stable": "stable-check",
                 "compress": "compress", "sample_slice_section": "slice-sample",
                 "coincide": "coincide", "variety_search": "variety-search",
                 "halfdeg_optimize": "halfdeg-opt"}
        calls = dict.fromkeys(users, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in users:
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        for command in users.values():
            code, _ = run_job(tmp_path, {"command": command,
                                         "payload": EXAMPLE_PAYLOADS[command]})
            assert code == 0
        assert all(count > 0 for count in calls.values()), calls


class TestIntegralFloats:
    """Draft 2020-12 counts 2.0 as an integer, so a job may write any
    integer field that way; it must compute what its integer twin does."""

    SEARCH = {"command": "variety-search",
              "payload": {"polys": [E1_MINUS_1], "pattern": 1, "budget": 5}, "seed": 3}
    CASES = {
        "gws-n": ("gws", ["f", "n"]),
        "gws-degree": ("gws", ["f", "degree"]),
        "young-gws-n": ("young-gws", ["f", "n"]),
        "young-gws-degree": ("young-gws", ["f", "degree"]),
        "halfdeg-opt-degree": ("halfdeg-opt", ["f", "degree"]),
        "halfdeg-opt-budget": ("halfdeg-opt", ["budget"]),
        "variety-search-n": ("variety-search", ["polys", 0, "n"]),
        "variety-search-budget": ("variety-search", ["budget"]),
        "variety-search-pattern": (SEARCH, ["pattern"]),
        "variety-search-pattern-pair": ("variety-search", ["pattern", 0]),
        "slice-sample-free-axes": ("slice-sample", ["free_axes", 1]),
        "slice-sample-resolution": ("slice-sample", ["resolution", 0]),
        "compress-seed": ({"command": "compress", "payload": EXAMPLE_PAYLOADS["compress"],
                           "seed": 5}, ["seed"]),
        "coincide-seed": ({"command": "coincide", "payload": EXAMPLE_PAYLOADS["coincide"],
                           "seed": 5}, ["seed"]),
        "variety-search-seed": (SEARCH, ["seed"]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_integer_literal(self, tmp_path, case):
        base, path = self.CASES[case]
        job = copy.deepcopy(base if isinstance(base, dict)
                            else {"command": base, "payload": EXAMPLE_PAYLOADS[base]})
        holder = job if path[0] == "seed" else job["payload"]
        for key in path[:-1]:
            holder = holder[key]
        assert isinstance(holder[path[-1]], int)
        code, expected = run_job(tmp_path, job)
        assert code == 0 and expected
        holder[path[-1]] = float(holder[path[-1]])
        assert run_job(tmp_path, job) == (0, expected)


E1_N2 = {"n": 2, "degree": 1, "terms": [{"exponents": [1], "coefficient": 1}]}
SECTION = EXAMPLE_PAYLOADS["slice-sample"]
# jobs the schemas accept that a check of the library refuses: the exit
# code and the words of the refusal
REFUSED_JOBS = {
    "compress-degree": ("compress", {
        "poly": {"z": FLAGSHIP_Z}, "slice": {"matrix": [[1, 0, 0]], "target": [[0, 23]]}},
        2, "slice dimension does not match polynomial degree"),
    "compress-off-slice": ("compress", {
        "poly": {"z": FLAGSHIP_Z}, "slice": {"matrix": [[1, 0, 0, 0]], "target": [[0, 24]]}},
        2, "starting point does not satisfy the slice constraints"),
    "slice-sample-equal-axes": ("slice-sample", {**SECTION, "free_axes": [0, 0]},
                                2, "free axes must be two distinct chart coordinates"),
    "slice-sample-axis-out-of-range": ("slice-sample", {**SECTION, "free_axes": [0, 4]},
                                       2, "free axes must be two distinct chart coordinates"),
    "sympoly-degree-above-n": ("gws", {"f": {"n": 2, "degree": 3, "terms": []},
                                       "x": [[0, 1], [0, 2]]},
                               2, "declared degree must lie in [0, n]"),
    "sympoly-weighted-degree": ("gws", {
        "f": {"n": 2, "degree": 1, "terms": [{"exponents": [0, 1], "coefficient": 1}]},
        "x": [[0, 1], [0, 2]]}, 2, "has weighted degree 2 > declared 1"),
    "sympoly-exponents-too-long": ("gws", {
        "f": {"n": 2, "degree": 2, "terms": [{"exponents": [0, 1, 1], "coefficient": 1}]},
        "x": [[0, 1], [0, 2]]}, 2, "exponent tuple longer than variable count"),
    "gws-coordinates": ("gws", {"f": E1_N2, "x": [[0, 1], [0, 2], [0, 3]]},
                        2, "expected 2 coordinates, got 3"),
    "gws-no-root-in-region": ("gws", {"f": E1_N2, "x": [[0, -1], [0, -1]]},
                              3, "no admissible root for the diagonal equation"),
    "coincide-coordinates": ("coincide", {**EXAMPLE_PAYLOADS["coincide"],
                                          "x": [[0, 1], [0, 2], [1, 1]]},
                             2, "expected 4 coordinates, got 3"),
    "young-gws-coordinates": ("young-gws", {**EXAMPLE_PAYLOADS["young-gws"],
                                            "x": [[0, 1], [1, 1], [2, 1]]},
                              2, "expected 2 coordinates, got 3"),
    # f's variable count must be the blocks' total: on fewer variables it
    # once crashed with an IndexError, on more it silently lost its e3 term
    "young-gws-f-on-fewer-variables": ("young-gws", {
        "blocks": [2], "x": [[0, 1], [0, 2]],
        "f": {"n": 1, "degree": 1, "terms": [{"exponents": [1], "coefficient": 1}]}},
        2, "the blocks hold 2 coordinates, f has n = 1"),
    "young-gws-f-on-more-variables": ("young-gws", {
        "blocks": [1, 1], "x": [[0, 1], [0, 2]],
        "f": {"n": 3, "degree": 3, "terms": [{"exponents": [1, 0, 0], "coefficient": 1},
                                             {"exponents": [0, 0, 1], "coefficient": 5},
                                             {"exponents": [0, 0, 0], "coefficient": -2}]}},
        2, "the blocks hold 2 coordinates, f has n = 3"),
    "young-gws-key-length": ("young-gws", {
        "blocks": [1, 1], "x": [[0, 1], [1, 1]],
        "block_terms": [{"weights": [1, 0, 0], "coefficient": 1}]},
        2, "block coefficient keys must have one entry per block"),
    "young-gws-weight-above-block": ("young-gws", {
        "blocks": [1, 1], "x": [[0, 1], [1, 1]],
        "block_terms": [{"weights": [2, 0], "coefficient": 1}]},
        2, "block weight (2, 0) exceeds block sizes"),
    "variety-search-mixed-n": ("variety-search", {"polys": [E1_N2, {**E1_N2, "n": 3}]},
                               2, "all polynomials must share the variable count"),
}


class TestRefusedJobs:
    @pytest.mark.parametrize("name", sorted(REFUSED_JOBS))
    def test_exits_with_the_check_and_writes_nothing(self, tmp_path, capsys, name):
        command, payload, expected, words = REFUSED_JOBS[name]
        job = {"command": command, "payload": payload}
        _validate(job["payload"], command)
        assert run_job(tmp_path, job) == (expected, "")
        err = capsys.readouterr().err
        kind = "invalid input" if expected == 2 else "numerical failure"
        assert err.startswith(f"error: {kind}: ") and words in err


def root_overflow_job():
    """roots of a stable degree-40 polynomial on which the Aberth iteration
    overflows."""
    rng = np.random.default_rng(40)
    roots = rng.normal(0, 1.5, 40) + 1j * np.abs(rng.normal(0, 1.0, 40))
    z = vieta_from_roots(roots).z
    return {"command": "roots", "payload": {"poly": {"z": [[v.real, v.imag] for v in z]}}}


class TestNumericalFailure:
    def test_root_overflow_exits_3(self, tmp_path, capsys):
        # until the root finder holds at this degree the CLI must report a
        # numerical failure, not invalid input
        code, text = run_job(tmp_path, root_overflow_job())
        assert code == 3
        assert text == ""
        assert "numerical failure" in capsys.readouterr().err

    def test_root_overflow_prints_only_the_failure_line(self, tmp_path):
        # in a fresh process, where NumPy has printed no warning yet: the
        # iteration's overflow must not reach stderr
        jf = tmp_path / "job.json"
        jf.write_text(json.dumps(root_overflow_job()))
        proc = subprocess.run(
            [sys.executable, "-m", "stable_slices.cli", "--job", str(jf)],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: numerical failure: ")

    def test_unfindable_pixel_exits_3(self, tmp_path, capsys):
        # a one-pixel window at a stable degree-24 point whose roots
        # find_roots cannot compute
        rng = np.random.default_rng(24)
        roots = rng.normal(0, 1.5, 24) + 1j * np.abs(rng.normal(0, 1, 24))
        z = vieta_from_roots(roots).z
        code, text = run_job(tmp_path, {
            "command": "slice-sample",
            "payload": {
                "slice": {"matrix": np.eye(24)[1:].tolist(),
                          "target": [[v.real, v.imag] for v in z[1:]]},
                "free_axes": [0, 1],
                "window": [z[0].real, z[0].real, z[0].imag, z[0].imag],
                "resolution": [1, 1],
            },
        })
        assert code == 3
        assert text == ""
        assert "numerical failure" in capsys.readouterr().err


    def test_overflowing_search_start_keeps_stdout_empty(self, tmp_path):
        # every residual of a start in this box overflows; a least-squares
        # step on the non-finite Jacobian made LAPACK print to stdout
        job = {"command": "variety-search",
               "payload": {"polys": [{"n": 2, "degree": 1,
                                      "terms": [{"exponents": [1], "coefficient": 1},
                                                {"exponents": [0], "coefficient": -1}]}],
                           "box": [1e308, 1e308, 1e308], "budget": 1}}
        jf = tmp_path / "job.json"
        jf.write_text(json.dumps(job))
        proc = subprocess.run(
            [sys.executable, "-m", "stable_slices.cli", "--job", str(jf)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""


def strict_json(text):
    """Parse text as JSON proper, which has no NaN or Infinity."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def sympoly_doc(n, degree, terms):
    return {"n": n, "degree": degree,
            "terms": [{"exponents": e, "coefficient": c} for e, c in terms]}


class TestStrictJson:
    def test_pinned_empty_search_writes_null(self, tmp_path):
        # e1 = -i and e2 = 1 admit no point of the closed upper power set
        code, text = run_job(tmp_path, {
            "command": "variety-search",
            "payload": {"polys": [sympoly_doc(2, 1, [([1], [1, 0]), ([0], [0, 1])]),
                                  sympoly_doc(2, 2, [([0, 1], 1), ([0, 0], -1)])]},
        })
        assert code == 0
        doc = strict_json(text)
        assert doc["found"] is False and doc["starts"] == 0
        assert doc["best_residual"] is None and doc["best_x"] is None

    def test_all_overflow_search_writes_null(self, tmp_path):
        # every residual in this box overflows, so no start has a norm
        with np.errstate(over="ignore", invalid="ignore"):
            code, text = run_job(tmp_path, {
                "command": "variety-search",
                "payload": {"polys": [sympoly_doc(2, 2, [([2], 1e300), ([0], -1)])],
                            "box": [1e10, 1e10, 1e10], "budget": 2},
            })
        assert code == 0
        doc = strict_json(text)
        # two patterns of two starts each
        assert doc["found"] is False and doc["starts"] == 4
        assert doc["best_residual"] is None and doc["best_x"] is None

    def test_overflowing_halfdeg_objective_exits_3(self, tmp_path, capsys):
        # 1e308 e1^2 overflows at every start; it once gave "inf_full":
        # Infinity with an empty witness and a bounded -Infinity
        with np.errstate(over="ignore", invalid="ignore"):
            code, text = run_job(tmp_path, {
                "command": "halfdeg-opt",
                "payload": {"f": sympoly_doc(2, 2, [([2], 1e308)]),
                            "lambda": 1, "mu": 0, "budget": 2},
            })
        assert code == 3
        assert text == ""
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_vieta_exits_4_with_one_line(self, tmp_path):
        # finite roots whose expansion overflows: the result would need
        # Infinity.  In a fresh process, where NumPy has printed no warning
        # yet, stderr must hold the one error line and no overflow warning
        jf = tmp_path / "job.json"
        jf.write_text(json.dumps({"command": "vieta",
                                  "payload": {"roots": [[1e200, 0], [1e200, 0]]}}))
        proc = subprocess.run(
            [sys.executable, "-m", "stable_slices.cli", "--job", str(jf)],
            capture_output=True, text=True)
        assert proc.returncode == 4
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: internal: ") and "not JSON" in line

    def test_non_finite_result_exits_4_with_nothing_written(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setitem(_COMMANDS, "roots", _COMMANDS["roots"]._replace(
            handler=lambda payload, ctx: {"value": float("inf")}))
        code, text = run_job(tmp_path, {"command": "roots",
                                        "payload": {"poly": {"z": [[0, 0], [1, 0]]}}})
        assert code == 4
        assert text == ""
        assert "not JSON" in capsys.readouterr().err


class TestSearchVerdicts:
    def test_verdicts_are_pinned(self, tmp_path):
        keys = ("found", "pattern", "starts_used", "patterns_tried", "starts")
        changed = []
        for entry in SEARCH_VERDICTS:
            doc = run_json(tmp_path, entry["job"])
            verdict = {key: doc[key] for key in keys if key in doc}
            if verdict != entry["verdict"]:
                changed.append((entry["name"], entry["verdict"], verdict))
        assert len(SEARCH_VERDICTS) == 98
        assert changed == []

    def test_halfdeg_results_are_pinned(self, tmp_path):
        changed = []
        for entry in HALFDEG_VERDICTS:
            doc = run_json(tmp_path, entry["job"])
            result = {key: doc[key] for key in entry["result"]}
            if result != entry["result"]:
                changed.append((entry["name"], entry["result"], result))
        assert len(HALFDEG_VERDICTS) == 80
        assert changed == []


class TestDeterminism:
    def test_variety_search_repeats_byte_identical(self, tmp_path):
        job = {
            "command": "variety-search",
            "payload": {
                "polys": [{"n": 2, "degree": 1,
                           "terms": [{"exponents": [1], "coefficient": [1, 0]}]}],
                "pattern": [1, 0],
                "budget": 30,
            },
            "seed": 11,
        }
        _, first = run_job(tmp_path, job)
        _, second = run_job(tmp_path, job)
        assert first == second
        doc = json.loads(first)
        assert doc["found"] is True

    def test_seed_flag_overrides_document(self, tmp_path):
        job = {
            "command": "halfdeg-opt",
            "payload": {
                "f": {"n": 2, "degree": 1,
                      "terms": [{"exponents": [1], "coefficient": [1, 0]}]},
                "lambda": 0.0,
                "mu": 1.0,
                "budget": 4,
            },
            "seed": 5,
        }
        doc_a = run_json(tmp_path, job, args=("--seed", "9"))
        doc_b = run_json(tmp_path, {**job, "seed": 9})
        assert doc_a == doc_b
        assert doc_a != run_json(tmp_path, job)
        assert doc_a["inf_full"] == pytest.approx(0.0, abs=1e-6)

    def test_seed_reaches_the_compress_descent(self, tmp_path):
        # the seed draws the descent's reference functional, which fixes
        # the phase of every interior step's kernel direction
        job = {"command": "compress", "payload": EXAMPLE_PAYLOADS["compress"], "seed": 5}
        doc_5 = run_json(tmp_path, job)
        doc_9 = run_json(tmp_path, {**job, "seed": 9})
        assert run_json(tmp_path, job, args=("--seed", "9")) == doc_9

        def directions(doc):
            return [step["direction"] for step in doc["steps"]]

        assert len(doc_5["steps"]) == len(doc_9["steps"]) == 2
        assert directions(doc_5) != directions(doc_9)


class TestParser:
    """main builds its argument parser once per process."""

    # the seed moves the point this search finds
    JOB = {"command": "variety-search",
           "payload": {"polys": [{"n": 2, "degree": 2, "terms": [
               {"exponents": [0, 1], "coefficient": 1},
               {"exponents": [0, 0], "coefficient": -1}]}], "budget": 5}}

    def call(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(self.JOB)))
        code = main(argv)
        return code, capsys.readouterr().out

    def test_cached_parser_keeps_no_state_between_jobs(self, monkeypatch, capsys):
        fresh = []
        for argv in (["--seed", "3"], []):
            cli._parser.cache_clear()
            fresh.append(self.call(monkeypatch, capsys, argv))
        cli._parser.cache_clear()
        cached = [self.call(monkeypatch, capsys, argv) for argv in (["--seed", "3"], [])]
        assert cli._parser.cache_info().hits == 1
        assert cached == fresh
        assert fresh[0][0] == 0 and fresh[0] != fresh[1]

    def test_bad_flag_exits_2_on_every_call(self, monkeypatch, capsys):
        for _ in range(3):
            with pytest.raises(SystemExit) as exc:
                main(["--no-such-flag"])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
            assert self.call(monkeypatch, capsys, [])[0] == 0


    def test_negative_seed_exits_2_naming_the_flag(self, monkeypatch, capsys):
        # the job's seed field has minimum 0, and the flag that overrides it
        # is refused the same way, before the job is read
        for argv in (["--seed", "-1"], ["--seed=-3"], ["--seed", "x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "argument --seed: expected a non-negative integer" in capsys.readouterr().err
        assert self.call(monkeypatch, capsys, ["--seed", "0"])[0] == 0


class TestModuleEntry:
    def test_python_dash_m_matches_in_process(self, tmp_path):
        job = {"command": "roots",
               "payload": {"poly": {"z": [[0, 0], [1, 0]]}}}
        jf = tmp_path / "job.json"
        jf.write_text(json.dumps(job))
        proc = subprocess.run(
            [sys.executable, "-m", "stable_slices.cli", "--job", str(jf)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        _, local = run_job(tmp_path, job)
        assert proc.stdout == local

    def test_valid_job_leaves_jsonschema_unloaded(self, tmp_path):
        # a fresh interpreter, since this suite imports jsonschema itself
        jf, of = tmp_path / "job.json", tmp_path / "out.json"
        jf.write_text(json.dumps({"command": "roots", "payload": EXAMPLE_PAYLOADS["roots"]}))
        script = textwrap.dedent("""
            import json, pathlib, sys
            from stable_slices import cli
            code = cli.main(["--job", sys.argv[1], "--out", sys.argv[2]])
            loaded = [m for m in ("jsonschema", "referencing", "rpds", "attrs") if m in sys.modules]
            package = [p.stem for p in pathlib.Path(cli.__file__).parent.glob("*.py")]
            missing = [m for m in package
                       if m != "__init__" and f"stable_slices.{m}" not in sys.modules]
            print(json.dumps([code, loaded, missing, cli.jsonschema is sys.modules["jsonschema"]]))
        """)
        proc = subprocess.run([sys.executable, "-c", script, str(jf), str(of)],
                              capture_output=True, text=True)
        assert proc.stderr == ""
        # the job ran; nothing of jsonschema was loaded for it, yet every
        # module of the package was, and cli.jsonschema still resolves
        assert json.loads(proc.stdout) == [0, [], [], True]
        assert of.read_text() == run_job(tmp_path, json.loads(jf.read_text()))[1]
        assert not hasattr(cli, "frobnicate")

    def test_refused_job_keeps_jsonschema_wording(self, tmp_path):
        job = PINNED_JOBS["wrong-convention"]
        with pytest.raises(jsonschema.ValidationError) as exc:
            jsonschema.validate(job["payload"], _COMMANDS["roots"].schema)
        jf = tmp_path / "job.json"
        jf.write_text(json.dumps(job))
        proc = subprocess.run(
            [sys.executable, "-m", "stable_slices.cli", "--job", str(jf)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: invalid job: {exc.value.message}\n"
