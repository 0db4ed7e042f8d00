"""In-process checks for the command line entry points.

Each test drives ``main(argv)`` directly and inspects the exit code, the
captured stdout/stderr, and any JSON written through ``--out``.  The
cross-process byte determinism of the suite report is covered by the
acceptance tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pmstat.cli import fn_from_spec, main, sequence_from_spec, space_from_spec
from pmstat.distfn import EPS0, StepDistFn, levy_distance, unit_step
from pmstat.harness import validate_report
from pmstat.pmspace import FinitePMSpace, from_table
from pmstat.triangle import TRIANGLE_KINDS, TriangleFn

EQ3_SPEC = "equilateral:3:jumps:0.25:0.5,0.75:1.0"
F_HALF = StepDistFn.from_pairs([(0.25, 0.5), (0.75, 1.0)])


@pytest.fixture()
def degenerate_space_path(tmp_path: Path) -> str:
    # off-diagonal entry equal to the unit step at 0: a P-2 violation that
    # only surfaces when the file is loaded back with validation on
    table = {
        ("p", "p"): EPS0,
        ("q", "q"): EPS0,
        ("p", "q"): EPS0,
        ("q", "p"): EPS0,
    }
    space = from_table(("p", "q"), table, TriangleFn("min"), validate=False)
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(space.to_json()))
    return str(path)


class TestSpecParsing:
    def test_fn_specs(self, tmp_path: Path) -> None:
        assert fn_from_spec("eps:0.4") == unit_step(0.4)
        assert fn_from_spec("jumps:0.25:0.5,0.75:1.0") == F_HALF
        path = tmp_path / "fn.json"
        path.write_text(json.dumps(F_HALF.to_json()))
        assert fn_from_spec(f"json:{path}") == F_HALF

    def test_fn_spec_errors(self) -> None:
        with pytest.raises(ValueError, match="bad jump"):
            fn_from_spec("jumps:0.25,0.5")
        with pytest.raises(ValueError, match="cannot parse"):
            fn_from_spec("bogus:1")

    def test_space_specs(self) -> None:
        eq = space_from_spec(EQ3_SPEC)
        assert eq.points == ("a", "b", "c")
        line = space_from_spec("line:4:0.2")
        assert line.points == ("v0", "v1", "v2", "v3")
        assert line.thresholds()[0] == pytest.approx(0.2)

    def test_space_spec_bounds(self) -> None:
        with pytest.raises(ValueError, match="1..26"):
            space_from_spec("equilateral:0:eps:0.5")
        with pytest.raises(ValueError, match="1..26"):
            space_from_spec("equilateral:27:eps:0.5")

    def test_sequence_specs(self) -> None:
        space = space_from_spec(EQ3_SPEC)
        assert sequence_from_spec(space, "const:b").values(3) == ["b", "b", "b"]
        x = sequence_from_spec(space, "except:a:squares")
        assert x.values(4) == ["c", "a", "a", "b"]
        # alternating holds the first point on the set, splice keeps the
        # base there and fills off it
        y = sequence_from_spec(space, "alternate:a,b:evens")
        assert y.values(4) == ["b", "a", "b", "a"]
        z = sequence_from_spec(space, "splice:const:a@squares@c")
        assert z.values(4) == ["a", "c", "c", "a"]

    def test_sequence_spec_errors(self) -> None:
        space = space_from_spec(EQ3_SPEC)
        with pytest.raises(ValueError, match="except needs"):
            sequence_from_spec(space, "except:a")
        with pytest.raises(ValueError, match="alternate needs"):
            sequence_from_spec(space, "alternate:a:evens")
        with pytest.raises(ValueError, match="splice needs"):
            sequence_from_spec(space, "splice:const:a@squares")
        with pytest.raises(ValueError, match="cannot parse"):
            sequence_from_spec(space, "walk:a")


class TestDistanceCommand:
    def test_prints_distance(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["dl", "eps:0.2", "eps:0.5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("levy distance:")

    def test_out_payload_matches_library(self, tmp_path: Path) -> None:
        out = tmp_path / "dl.json"
        assert main(["dl", "eps:0.2", "jumps:0.25:0.5,0.75:1.0", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "dl"
        assert payload["distance"] == levy_distance(unit_step(0.2), F_HALF)
        assert StepDistFn.from_json(payload["f"]) == unit_step(0.2)
        assert StepDistFn.from_json(payload["g"]) == F_HALF

    def test_negative_zero_location_is_written_as_zero(self, tmp_path: Path) -> None:
        fn, out = tmp_path / "fn.json", tmp_path / "dl.json"
        fn.write_text("[[-0.0, 1.0]]")
        assert main(["dl", f"json:{fn}", "eps:-0.0", "--out", str(out)]) == 0
        assert "-0.0" not in out.read_text()
        payload = json.loads(out.read_text())
        assert payload["f"] == payload["g"] == [[0.0, 1.0]] and payload["distance"] == 0.0

    def test_bad_spec_exits_2(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["dl", "nonsense", "eps:0.5"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "data, message",
        [(5, "number pairs"), ([[0.5]], "number pairs"), ([[0.5, True]], "number pairs"), ([[10**400, 1]], "float range")],
    )
    def test_malformed_json_fn_exits_2(
        self, data: object, message: str, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        path = tmp_path / "fn.json"
        path.write_text(json.dumps(data))
        assert main(["dl", f"json:{path}", "eps:0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, err


class TestTnormCommand:
    @pytest.mark.parametrize("kind", TRIANGLE_KINDS)
    def test_every_kind_passes(self, kind: str, capsys: pytest.CaptureFixture) -> None:
        rc = main(["tnorm-check", "--tnorm", kind, "--samples", "4", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "PASS commutative" in out
        assert "PASS associative" in out
        assert "FAIL" not in out

    def test_unknown_kind_rejected_by_parser(self) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["tnorm-check", "--tnorm", "projection"])
        assert exc.value.code == 2

    def test_out_report(self, tmp_path: Path) -> None:
        out = tmp_path / "tnorm.json"
        assert main(["tnorm-check", "--tnorm", "min", "--samples", "3", "--seed", "1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["tnorm"] == "min"
        assert payload["report"]["ok"] is True


class TestSpaceCommand:
    def test_valid_space(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["space-validate", EQ3_SPEC]) == 0
        out = capsys.readouterr().out
        assert "points: a, b, c" in out
        assert "thresholds: 0.5" in out
        assert "all axioms hold" in out

    def test_line_space(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["space-validate", "line:5:0.3"]) == 0
        assert "all axioms hold" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["line:8:0.1", "line:12:0.3", "line:6:0.7"])
    def test_line_spacing_rounding_no_longer_breaks_p4(self, spec: str, capsys: pytest.CaptureFixture) -> None:
        # 0.1 * 6 rounds above 0.1 + 0.5: the snapped spacing makes both exact
        assert main(["space-validate", spec]) == 0
        assert "all axioms hold" in capsys.readouterr().out

    def test_line_of_every_length_validates(self) -> None:
        for n in range(1, 51):
            space = space_from_spec(f"line:{n}:0.1")  # raises on any axiom violation
            assert len(space.points) == n
        assert space.dist("v0", "v1") == pytest.approx(0.1, rel=1e-13)
        assert space.dist("v0", "v6") == 2 * space.dist("v0", "v3")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("line:0:0.1", "1..50 points"),
            ("line:51:0.1", "1..50 points"),
            ("line:100000000:0.1", "1..50 points"),
            ("line:3:inf", "line spacing"),
            ("line:3:nan", "line spacing"),
            ("line:3:0", "line spacing"),
            ("line:3:-0.5", "line spacing"),
            ("line:50:1e307", "line spacing"),
        ],
    )
    def test_line_spec_bounds_exit_2(self, spec: str, message: str, capsys: pytest.CaptureFixture) -> None:
        assert main(["space-validate", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_degenerate_file_rejected_on_load(
        self, degenerate_space_path: str, capsys: pytest.CaptureFixture
    ) -> None:
        # from_json revalidates, so a bad table is an input error (2), not
        # a failed check (1)
        assert main(["space-validate", degenerate_space_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "P-2" in err

    def test_equilateral_unit_step_at_zero_exits_2(self, capsys: pytest.CaptureFixture) -> None:
        # P-2 is named by validate_axioms, with its witness and message
        assert main(["space-validate", "equilateral:3:eps:0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: P-2 violated at ('a', 'b'): off-diagonal entry equals the unit step at 0\n"

    def test_out_report(self, tmp_path: Path) -> None:
        out = tmp_path / "space.json"
        assert main(["space-validate", EQ3_SPEC, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["points"] == ["a", "b", "c"]
        assert payload["report"]["ok"] is True
        assert payload["report"]["violations"] == []

    def test_missing_file_exits_2(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["space-validate", "/no/such/space.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "data, message",
        [
            ([1, 2], "JSON object"),
            ({"points": ["a", "b"], "tnorm": "min", "F": 5}, "F must be a list"),
            ({"points": 5, "tnorm": "min", "F": []}, "list of strings"),
            ({"points": ["a", "b"], "tnorm": "min", "F": [["a", "b"]]}, "triple"),
            (
                {"points": ["a", "b"], "tnorm": "maximal", "F": [["a", "b", [[0.5, 1.0]]], ["a", "c", [[0.5, 1.0]]]]},
                "two distinct known points",
            ),
            (
                {"points": ["a", "b"], "tnorm": "maximal", "F": [["a", "b", [[0.5, 1.0]]], ["b", "a", [[0.7, 1.0]]]]},
                "twice",
            ),
            ({"points": ["a", "b"], "tnorm": "maximal", "F": [["a", "b", 5]]}, "number pairs"),
        ],
    )
    def test_malformed_file_exits_2(
        self, data: object, message: str, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        path = tmp_path / "space.json"
        path.write_text(json.dumps(data))
        assert main(["space-validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, err

    def test_each_space_is_validated_once(self, tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> None:
        path = tmp_path / "eq3.json"
        path.write_text(json.dumps(space_from_spec(EQ3_SPEC).to_json()))
        calls = []
        validate = FinitePMSpace.validate_axioms

        def counted(space: FinitePMSpace):
            calls.append(space.points)
            return validate(space)

        monkeypatch.setattr(FinitePMSpace, "validate_axioms", counted)
        for spec in (EQ3_SPEC, "line:50:0.1", str(path)):
            calls.clear()
            assert main(["space-validate", spec]) == 0
            assert len(calls) == 1, spec

    def test_overflowing_jump_sum_is_named(self, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
        # every F_pq jumps at 1e308, so tau(F_pq, F_qr) would jump at 2e308
        far = StepDistFn.from_pairs([(1e308, 1.0)])
        pts = ("a", "b", "c")
        table = {(p, q): EPS0 if p == q else far for p in pts for q in pts}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(from_table(pts, table, TriangleFn("min"), validate=False).to_json()))
        assert main(["space-validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: jump-location sum overflows: 1e+308 + 1e+308")


class TestMatrixAndDensityCommands:
    def test_default_matrix_is_regular(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["matrix-check", "--N", "2000"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_constant_column_fails(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["matrix-check", "--matrix", "constcol", "--N", "2000"]) == 1
        assert "FAIL columns-vanish residual=1" in capsys.readouterr().out

    def test_bad_matrix_spec(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["matrix-check", "--matrix", "hilbert"]) == 2
        assert "cannot parse matrix spec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, refusal, reason",
        [
            (["mod:3,1&evens"], "index-set spec 'mod:3,1&evens'", "invalid literal for int() with base 10: '1&evens'"),
            (["mod:x,1"], "index-set spec 'mod:x,1'", "invalid literal for int() with base 10: 'x'"),
            (["mod:3"], "index-set spec 'mod:3'", "wanted 2 comma-separated numbers, got 1"),
            (["block:1"], "index-set spec 'block:1'", "wanted 2 comma-separated numbers, got 1"),
            (["finite:a"], "index-set spec 'finite:a'", "invalid literal for int() with base 10: 'a'"),
            (["evens", "--matrix", "block:x"], "matrix spec 'block:x'", "invalid literal for int() with base 10: 'x'"),
            (["evens", "--matrix", "block:"], "matrix spec 'block:'", "invalid literal for int() with base 10: ''"),
            (["evens", "--matrix", "weighted:abc"], "matrix spec 'weighted:abc'", "could not convert string to float: 'abc'"),
        ],
    )
    def test_a_refused_spec_is_named_with_its_reason(
        self, args: list[str], refusal: str, reason: str, capsys: pytest.CaptureFixture
    ) -> None:
        # the error names the spec that failed, not only Python's own message
        assert main(["density", *args]) == 2
        assert capsys.readouterr().err == f"error: cannot parse {refusal}: {reason}\n"

    @pytest.mark.parametrize("power", ["nan", "inf", "-inf"])
    def test_non_finite_weights_exit_2(self, power: str, capsys: pytest.CaptureFixture) -> None:
        assert main(["density", "evens", "--matrix", f"weighted:{power}"]) == 2
        assert "weight power must be finite" in capsys.readouterr().err

    def test_overflowing_weights_exit_2(self, capsys: pytest.CaptureFixture) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["density", "evens", "--matrix", "weighted:400", "--N", "1000"]) == 2
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("seq", ["const:a", "except:a:evens"])
    def test_overflowing_density_ideal_exit_2_with_or_without_members(
        self, seq: str, capsys: pytest.CaptureFixture
    ) -> None:
        # const:a has no defect at all; B is refused before its empty reading
        args = ["converge", "--space", "equilateral:3:eps:0.5", "--seq", seq, "--limit", "a"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*args, "--ideal", "density:weighted:400", "--N", "10000"]) == 2
        assert "weight sums for power 400.0 overflow from row 6" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["-0.1", "NaN", "Infinity"])
    @pytest.mark.parametrize("cmd", [["matrix-check"], ["density", "evens"]])
    def test_bad_file_entries_exit_2(
        self, entry: str, cmd: list[str], tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        path = tmp_path / "rows.json"
        path.write_text("[" + ", ".join(f"[{entry}, 1.1]" for _ in range(12)) + "]")
        assert main([*cmd, "--matrix", f"file:{path}", "--N", "10"]) == 2
        assert "finite and non-negative" in capsys.readouterr().err

    def test_file_matrix_wider_than_the_horizon_exits_2(self, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
        path = tmp_path / "wide.json"
        path.write_text(json.dumps([[1 / 11] * 11]))
        assert main(["matrix-check", "--matrix", f"file:{path}", "--N", "10"]) == 2
        assert capsys.readouterr().err == "error: horizon 10 below the support of the first row\n"

    @pytest.mark.parametrize("rows", ["[1, 2]", "5", '"rows"', '[[1.0], "ab"]', "[[true]]", "[[null]]"])
    @pytest.mark.parametrize("cmd", [["matrix-check"], ["density", "evens"]])
    def test_file_matrix_not_lists_of_numbers_exit_2(
        self, rows: str, cmd: list[str], tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        path = tmp_path / "m.json"
        path.write_text(rows)
        assert main([*cmd, "--matrix", f"file:{path}", "--N", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"file:{path}" in err and "lists of numbers" in err

    def test_density_reports_value(self, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
        out = tmp_path / "density.json"
        assert main(["density", "evens", "--out", str(out)]) == 0
        assert "A^I-density of evens" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["matrix"] == "cesaro"
        assert payload["ideal"] == "fin"
        assert payload["verdict"]["status"] == "converged"
        assert payload["verdict"]["value"] == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("matrix", ["constcol", "weighted:-2"])
    def test_inadmissible_density_ideal_exits_2(self, matrix: str, capsys: pytest.CaptureFixture) -> None:
        # these answered "converged, value 0.0001" for the density of {1}
        assert main(["density", "finite:1", "--ideal", f"density:{matrix}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "column 1 does not tend to 0" in captured.err

    @pytest.mark.parametrize("matrix", ["weighted:-1", "weighted:-0.5"])
    def test_harmonic_and_slower_weights_stay_admissible(self, matrix: str, capsys: pytest.CaptureFixture) -> None:
        assert main(["density", "finite:1", "--ideal", f"density:{matrix}"]) == 0
        assert "finite:1" in capsys.readouterr().out

    def test_density_ideal_spec(self, tmp_path: Path) -> None:
        out = tmp_path / "density.json"
        rc = main(["density", "squares", "--ideal", "density:cesaro", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["ideal"] == "density-zero(cesaro)"


class TestDetectorCommands:
    def test_converge_accepts_planted_limit(self, capsys: pytest.CaptureFixture) -> None:
        rc = main(["converge", "--space", EQ3_SPEC, "--seq", "except:a:squares", "--limit", "a"])
        assert rc == 0
        assert "converged" in capsys.readouterr().out

    def test_converge_rejects_other_point(self, capsys: pytest.CaptureFixture) -> None:
        rc = main(["converge", "--space", EQ3_SPEC, "--seq", "except:a:squares", "--limit", "b"])
        assert rc == 1
        assert "diverged" in capsys.readouterr().out

    def test_missing_space_exits_2(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["converge", "--seq", "const:a", "--limit", "a"]) == 2
        assert "needs --space" in capsys.readouterr().err

    def test_cauchy(self, capsys: pytest.CaptureFixture, tmp_path: Path) -> None:
        out = tmp_path / "cauchy.json"
        rc = main(["cauchy", "--space", EQ3_SPEC, "--seq", "except:a:squares", "--out", str(out)])
        assert rc == 0
        assert "anchor a" in capsys.readouterr().out
        assert json.loads(out.read_text())["verdict"]["value"] == "a"

    def test_cauchy_alternator_fails(self, capsys: pytest.CaptureFixture) -> None:
        rc = main(["cauchy", "--space", EQ3_SPEC, "--seq", "alternate:a,b:evens"])
        assert rc == 1

    def test_limit_point_set(self, capsys: pytest.CaptureFixture) -> None:
        rc = main(["lambda", "--space", EQ3_SPEC, "--seq", "alternate:a,b:evens"])
        assert rc == 0
        assert "statistical limit points: {a, b}" in capsys.readouterr().out

    def test_cluster_point_set(self, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
        out = tmp_path / "gamma.json"
        rc = main(["gamma", "--space", EQ3_SPEC, "--seq", "alternate:a,b:evens", "--out", str(out)])
        assert rc == 0
        assert "statistical cluster points: {a, b}" in capsys.readouterr().out
        assert json.loads(out.read_text())["points"] == ["a", "b"]


class TestConfigAndEnv:
    def test_config_supplies_options(self, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": EQ3_SPEC, "tol": 0.02}))
        rc = main(["converge", "--config", str(cfg), "--seq", "except:a:squares", "--limit", "a"])
        assert rc == 0

    def test_config_unknown_key(self, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["matrix-check", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["matrix-check", "--config", str(cfg)]) == 2
        assert "JSON object" in capsys.readouterr().err

    def test_flag_beats_config(self, tmp_path: Path) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"matrix": "constcol"}))
        out = tmp_path / "density.json"
        rc = main(["density", "evens", "--config", str(cfg), "--matrix", "cesaro", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["matrix"] == "cesaro"
        rc = main(["density", "evens", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["matrix"] == "constcol:1"

    def test_horizon_is_not_a_config_key(self, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
        # the horizon is set by N alone
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"horizon": 2000}))
        assert main(["matrix-check", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: unknown config key 'horizon'")

    def test_env_seed_used(self, monkeypatch: pytest.MonkeyPatch, tmp_path: Path, capsys) -> None:
        monkeypatch.setenv("PMSTAT_SEED", "77")
        out = tmp_path / "suite.json"
        assert main(["suite", "--size", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 77

    def test_flag_beats_env_seed(self, monkeypatch: pytest.MonkeyPatch, tmp_path: Path, capsys) -> None:
        monkeypatch.setenv("PMSTAT_SEED", "77")
        out = tmp_path / "suite.json"
        assert main(["suite", "--size", "0", "--seed", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["seed"] == 5

    def test_bad_env_seed(self, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture) -> None:
        monkeypatch.setenv("PMSTAT_SEED", "abc")
        assert main(["suite", "--size", "0"]) == 2
        assert capsys.readouterr().err.startswith("error:")


# (command, option) pairs that were deleted: the Levy metric is exact, so
# it takes no tolerance, and a command takes only the options it reads
REMOVED_FLAGS = {
    ("dl", "--dl-tol"): "1e-9",
    ("suite", "--matrix"): "squares",
    ("suite", "--ideal"): "fin",
    ("suite", "--space"): EQ3_SPEC,
    ("matrix-check", "--ideal"): "fin",
    ("matrix-check", "--space"): EQ3_SPEC,
    ("density", "--space"): EQ3_SPEC,
}
# a run of each command that exits 0 without the deleted option
_GOOD_RUNS = {
    "dl": ["dl", "eps:0.3", "eps:0.5"],
    "suite": ["suite", "--size", "0"],
    "matrix-check": ["matrix-check"],
    "density": ["density", "evens"],
}


@pytest.mark.parametrize("cmd, flag", sorted(REMOVED_FLAGS))
def test_removed_flag_is_unrecognized(cmd: str, flag: str, capsys: pytest.CaptureFixture) -> None:
    assert main(_GOOD_RUNS[cmd]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(_GOOD_RUNS[cmd] + [flag, REMOVED_FLAGS[cmd, flag]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {flag}" in err, err


class TestNumericOptions:
    """Every numeric option is checked once, after flags, ``--config`` and
    the environment are merged; a bad value exits 2 with a message, and a
    deleted option exits 2 as unknown."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["density", "evens", "--tol", "nan"], "--tol"),
            (["density", "evens", "--tol", "-1"], "--tol"),
            (["density", "evens", "--tol", "0"], "--tol"),
            (["density", "evens", "--tol", "inf"], "--tol"),
            (["dl", "eps:0.3", "eps:0.5", "--dl-tol", "nan"], "--dl-tol"),
            (["dl", "eps:0.3", "eps:0.5", "--dl-tol", "0"], "--dl-tol"),
            (["tnorm-check", "--tnorm", "prod", "--samples", "-3"], "--samples"),
            (["converge", "--space", "line:3:0.5", "--seq", "const:v0", "--limit", "v0", "--N", "5"], "--N"),
            (["matrix-check", "--N", "9"], "--N"),
            (["suite", "--size", "-1"], "--size"),
            (["suite", "--size", "0", "--seed", "-1"], "--seed"),
            (["tnorm-check", "--tnorm", "prod", "--seed", "-1"], "--seed"),
            (["gamma", "--space", "line:3:0.5", "--seq", "const:v0", "--N", "-1"], "--N"),
        ],
    )
    def test_bad_flag_exits_2(self, argv: list[str], flag: str, capsys: pytest.CaptureFixture) -> None:
        if (argv[0], flag) in REMOVED_FLAGS:
            # argparse rejects an option that no longer exists, whatever its value
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"error: unrecognized arguments: {flag}" in err, err
            return
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be"), err

    @pytest.mark.parametrize(
        "config, flag",
        [
            ({"tol": -1}, "--tol"),
            ({"tol": "nan"}, "--tol"),
            ({"dl_tol": "nan"}, "--dl-tol"),
            ({"N": 5}, "--N"),
            ({"N": 20.5}, "--N"),
            ({"N": True}, "--N"),
            ({"N": [100]}, "--N"),
            ({"tol": 0}, "--tol"),
            ({"matrix": 5}, "--matrix"),
            ({"ideal": ["fin"]}, "--ideal"),
        ],
    )
    def test_bad_config_value_exits_2(
        self, config: dict, flag: str, tmp_path: Path, capsys: pytest.CaptureFixture
    ) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["density", "evens", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        if flag == "--dl-tol":
            (key,) = config
            assert err.startswith(f"error: unknown config key {key!r}"), err
        else:
            assert err.startswith(f"error: {flag} must be"), err

    @pytest.mark.parametrize("space, message", [(3, "--space must be a spec string"), (None, "converge needs --space")])
    def test_bad_config_space_exits_2(self, space, message: str, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"space": space}))
        assert main(["converge", "--config", str(cfg), "--seq", "const:a", "--limit", "a"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_config_keys_a_command_does_not_read_are_ignored(self, tmp_path: Path) -> None:
        # one config file may serve several commands
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"matrix": 5, "ideal": None, "space": "nope.json", "seed": 2}))
        assert main(["suite", "--size", "0", "--config", str(cfg)]) == 0
        assert main(["dl", "eps:0.3", "eps:0.5", "--config", str(cfg)]) == 0

    def test_nan_jump_exits_2(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["dl", "jumps:0.1:nan,0.2:1.0", "eps:0.5"]) == 2
        assert "non-finite jump" in capsys.readouterr().err

    def test_good_config_values_are_converted(self, tmp_path: Path) -> None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"N": "2000", "tol": "0.02"}))
        out = tmp_path / "check.json"
        assert main(["matrix-check", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads(out.read_text())["report"]
        assert report["horizon"] == 2000


class TestSuiteCommand:
    @pytest.mark.parametrize("with_out", [False, True])
    def test_report_validated_once(
        self, with_out: bool, tmp_path: Path, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
    ) -> None:
        import pmstat.cli
        import pmstat.harness

        calls = []

        def counting(report) -> None:
            calls.append(1)
            validate_report(report)

        monkeypatch.setattr(pmstat.cli, "validate_report", counting)
        monkeypatch.setattr(pmstat.harness, "validate_report", counting)
        argv = ["suite", "--size", "1", "--N", "2000"]
        if with_out:
            argv += ["--out", str(tmp_path / "r.json")]
        assert main(argv) in (0, 1)
        assert len(calls) == 1

    def test_empty_suite_passes(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["suite", "--size", "0"]) == 0
        out = capsys.readouterr().out
        assert "instances=0" in out.splitlines()[0]
        assert out.splitlines()[-1].endswith("ok=True")

    def test_small_suite_writes_report_and_csv(self, tmp_path: Path, capsys) -> None:
        out = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        rc = main(["suite", "--size", "2", "--out", str(out), "--csv", str(csv_path)])
        text = capsys.readouterr().out
        assert rc == 0, text
        report = json.loads(out.read_text())
        validate_report(report)
        assert report["summary"]["ok"] is True
        assert len(report["instances"]) == 2
        # header row plus one line per check
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == len(report["checks"]) + 1
        assert rows[0].startswith("name,group,instance,control,passed,residual")

    def test_text_rendering_structure(self, capsys: pytest.CaptureFixture) -> None:
        assert main(["suite", "--size", "1", "--N", "4000"]) in (0, 1)
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("pmstat-theorem-suite seed=1")
        assert lines[-1].startswith("summary:")
        assert any(line.startswith("XFAIL") for line in lines)


class TestParserErrors:
    def test_help_exits_0(self) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unknown_command(self) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--space", EQ3_SPEC, "--limit", "a"])
        assert exc.value.code == 2


# -- fuzzing the spec grammars ------------------------------------------------

_NUMBER = st.one_of(
    st.integers(-3, 8).map(str),
    st.sampled_from(["0", "27", "51", "100000000", "9" * 30, "1e400", "-0.0", "nan", "inf", "5e-324", "0.1", "1_0"]),
    st.floats().map(repr),
    st.text("0123456789.-+e", max_size=6),
)
_TEXT = st.text(max_size=20)


def _joined(parts: st.SearchStrategy, sep: str = ",") -> st.SearchStrategy:
    return st.lists(parts, max_size=4).map(sep.join)


_FN_SPEC = st.one_of(
    st.builds("eps:{}".format, _NUMBER),
    st.builds("jumps:{}".format, _joined(st.builds("{}:{}".format, _NUMBER, _NUMBER))),
    st.builds("json:/nonexistent/{}".format, _TEXT),
    _TEXT,
)
_SET_SPEC = st.recursive(
    st.one_of(
        st.sampled_from(["all", "none", "evens", "odds", "squares", "cubes", "pow2"]),
        st.builds("finite:{}".format, _joined(_NUMBER)),
        st.builds("mod:{},{}".format, _NUMBER, _NUMBER),
        st.builds("block:{},{}".format, _NUMBER, _NUMBER),
        _TEXT,
    ),
    lambda inner: st.one_of(st.builds("not:{}".format, inner), st.builds("{}{}".format, st.just("not:" * 1500), inner)),
    max_leaves=3,
)
_MATRIX_SPEC = st.one_of(
    st.sampled_from(["cesaro", "identity", "constcol", "squares"]),
    st.builds("block:{}".format, _NUMBER),
    st.builds("weighted:{}".format, _NUMBER),
    st.builds("file:/nonexistent/{}".format, _TEXT),
    _TEXT,
)
_IDEAL_SPEC = st.one_of(st.just("fin"), st.builds("density:{}".format, _MATRIX_SPEC), _TEXT)
_POINT = st.one_of(st.sampled_from(["a", "b", "c"]), _TEXT)
_SEQ_SPEC = st.recursive(
    st.one_of(
        st.builds("const:{}".format, _POINT),
        st.builds("except:{}:{}".format, _POINT, _SET_SPEC),
        st.builds("alternate:{},{}:{}".format, _POINT, _POINT, _SET_SPEC),
        _TEXT,
    ),
    lambda inner: st.builds("splice:{}@{}@{}".format, inner, _SET_SPEC, _POINT),
    max_leaves=3,
)
_SPACE_SPEC = st.one_of(
    st.builds("equilateral:{}:{}".format, st.one_of(st.integers(-1, 6).map(str), _NUMBER), _FN_SPEC),
    st.builds("line:{}:{}".format, st.one_of(st.integers(-1, 12).map(str), _NUMBER), _NUMBER),
    st.builds("/nonexistent/{}".format, _TEXT),
    _TEXT,
)


def _exit_code(argv: list[str]) -> int:
    """Run the CLI in-process; argparse usage errors count as their exit code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in err.getvalue()
    return code


class TestSpecGrammarFuzz:
    """Any string in a spec position ends in exit 0, 1 or 2 with a message,
    never in a traceback.  Positionals go after ``--`` so that text starting
    with a dash stays a spec; without it argparse exits 2 as well."""

    @given(_FN_SPEC, _FN_SPEC)
    @example("jumps:1e308:0.5,1.7e308:1", "eps:5e-324")
    def test_dl(self, f: str, g: str) -> None:
        assert _exit_code(["dl", "--", f, g]) in (0, 1, 2)

    @given(_SET_SPEC, _MATRIX_SPEC, _IDEAL_SPEC)
    @example("finite:1," + "9" * 30, "cesaro", "fin")  # once an OverflowError
    @example("not:" * 2000 + "evens", "cesaro", "fin")  # once a RecursionError
    def test_density(self, member: str, matrix: str, ideal: str) -> None:
        argv = ["density", "--matrix", matrix, "--ideal", ideal, "--N", "100", "--", member]
        assert _exit_code(argv) in (0, 1, 2)

    @given(_SPACE_SPEC)
    @example("line:100000000:0.1")  # once an O(n^3) hang
    @example("line:3:inf")  # once a "NaN distance"
    def test_space_validate(self, space: str) -> None:
        assert _exit_code(["space-validate", "--", space]) in (0, 1, 2)

    # ``--seq=<spec>`` keeps text that starts with a dash a sequence spec

    @given(_SEQ_SPEC, _POINT)
    @example("splice:const:a@evens@b", "a")
    @example("alternate:a,a:finite:1," + "9" * 30, "a")
    def test_converge(self, seq: str, limit: str) -> None:
        argv = ["converge", "--space", EQ3_SPEC, "--N", "100", f"--seq={seq}", f"--limit={limit}"]
        assert _exit_code(argv) in (0, 1, 2)

    @given(_SEQ_SPEC)
    @example("except:b:" + "not:" * 2000 + "squares")
    def test_cauchy(self, seq: str) -> None:
        assert _exit_code(["cauchy", "--space", EQ3_SPEC, "--N", "100", f"--seq={seq}"]) in (0, 1, 2)


_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(max_size=5),
        st.sampled_from(["a", "b", "c", "min", "prod", "maximal"]),
    ),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=12,
)
_JUMPS = st.one_of(st.lists(st.lists(st.one_of(st.floats(), st.integers(), _JSON), max_size=3), max_size=3), _JSON)
_SPACE_JSON = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {
            "points": st.one_of(st.lists(st.sampled_from(["a", "b", "c"]), max_size=3), _JSON),
            "tnorm": st.one_of(st.sampled_from(TRIANGLE_KINDS), _JSON),
            "F": st.one_of(
                st.lists(
                    st.one_of(st.tuples(st.sampled_from(["a", "b", "c", "z"]), st.sampled_from(["a", "b", "c"]), _JUMPS).map(list), _JSON),
                    max_size=4,
                ),
                _JSON,
            ),
        }
    ),
)


class TestJsonFileFuzz:
    """Any JSON value in a space file or a ``json:`` d.d.f. file ends in
    exit 0, 1 or 2, never in a traceback."""

    @staticmethod
    def _run(data: object, argv: Callable[[str], list[str]]) -> int:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input.json"
            path.write_text(json.dumps(data))
            return _exit_code(argv(str(path)))

    @given(_SPACE_JSON)
    @example({"points": ["a", "b"], "tnorm": "maximal", "F": [["a", "b", [[0.5, 1.0]]]]})
    def test_space_validate(self, data: object) -> None:
        assert self._run(data, lambda path: ["space-validate", "--", path]) in (0, 1, 2)

    @given(_JUMPS)
    @example([[0.25, 0.5], [0.75, 1.0]])
    def test_dl(self, data: object) -> None:
        assert self._run(data, lambda path: ["dl", "--", f"json:{path}", "eps:0.5"]) in (0, 1, 2)
