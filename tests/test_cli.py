"""End-to-end checks of the JSON batch interface."""

import json
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from jsonschema.validators import validator_for

from stable_slices import cli, vieta_from_roots
from stable_slices.cli import _JOB_SCHEMA, _PAYLOADS, _validate, main

FLAGSHIP_Z = [[0.0, 23.0], [-463.0, 0.0], [0.0, -8461.0], [8020.0, 0.0]]


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
        assert doc["roots"] == [[0.0, -1.0], [0.0, 1.0]]
        assert "tolerances" in doc

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
                "tolerances": {"type": "object"},
            },
            "required": ["roots", "tolerances"],
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
        assert doc == {"empty": True, "tolerances": doc["tolerances"]}


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
        assert doc["cap_reached"] is False
        assert doc["checkpoints"] == [[0, 3], [0, 2]]
        for step in doc["steps"]:
            assert step["stable"] is True


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
    # crash, a NaN result or a wrong verdict (the stable-check merged the
    # roots 2i and -0.1i into one interior root)
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
        '{"command": "stable-check", "payload": {"poly": {"z": [[0, 1.9], [0.2, 0]]}},'
        ' "tolerances": {"cluster": Infinity}}',
        '{"command": "bounds", "payload": {"a1": 1e400, "a2": 1, "n": 3}}',
        '{"command": "bounds", "payload": {"a1": 1%s, "a2": 1, "n": 3}}' % ("0" * 400),
    ]

    @pytest.mark.parametrize("text", NON_FINITE_JOBS, ids=[
        "search-box-nan", "bounds-nan", "moebius-nan", "halfdeg-minus-infinity",
        "cluster-infinity", "bounds-1e400", "bounds-huge-integer"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, text):
        jf = tmp_path / "job.json"
        jf.write_text(text)
        assert main(["--job", str(jf)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "cannot read job" in err

    def test_schemas_pass_the_meta_schema(self):
        for schema in [_JOB_SCHEMA, *_PAYLOADS.values()]:
            validator_for(schema).check_schema(schema)

    def test_cached_validators_raise_the_same_errors(self):
        jobs = [
            {"command": "frobnicate", "payload": {}},
            {"command": "roots"},
            {"command": "roots", "payload": {"poly": {"z": []}}},
            {"command": "bounds", "payload": {"a1": 1, "a2": [1, 2, 3], "n": 1}},
            {"command": "variety-search",
             "payload": {"polys": [{"n": 2, "degree": 1, "terms": []}], "budget": 0}},
        ]
        for job in jobs:
            with pytest.raises(jsonschema.ValidationError) as expected:
                jsonschema.validate(job, _JOB_SCHEMA)
                jsonschema.validate(job["payload"], _PAYLOADS[job["command"]])
            with pytest.raises(jsonschema.ValidationError) as got:
                _validate(job, None)
                _validate(job["payload"], job["command"])
            assert got.value.message == expected.value.message


class TestNumericalFailure:
    def test_root_overflow_exits_3(self, tmp_path, capsys):
        # a stable degree-40 polynomial on which the Aberth iteration
        # overflows; until the root finder holds at this degree the CLI
        # must report a numerical failure, not invalid input
        rng = np.random.default_rng(40)
        roots = rng.normal(0, 1.5, 40) + 1j * np.abs(rng.normal(0, 1.0, 40))
        z = vieta_from_roots(roots).z
        code, text = run_job(tmp_path, {
            "command": "roots",
            "payload": {"poly": {"z": [[v.real, v.imag] for v in z]}},
        })
        assert code == 3
        assert text == ""
        assert "numerical failure" in capsys.readouterr().err

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

    def test_non_finite_result_exits_4_with_nothing_written(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(cli, "_run_command", lambda *args: {"value": float("inf")})
        code, text = run_job(tmp_path, {"command": "roots",
                                        "payload": {"poly": {"z": [[0, 0], [1, 0]]}}})
        assert code == 4
        assert text == ""
        assert "not JSON" in capsys.readouterr().err


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
        doc_a = run_json(tmp_path, job, args=("--seed", "5"))
        doc_b = run_json(tmp_path, job)
        assert doc_a == doc_b
        assert doc_a["inf_full"] == pytest.approx(0.0, abs=1e-6)


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
