"""Command-line interface: file parsing, CSV schemas, exit codes,
determinism under a fixed seed."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdflow
from pdflow.cli import (
    EXIT_CONVERGED,
    EXIT_DIVERGED,
    EXIT_INPUT,
    EXIT_STEP_BUDGET,
    load_problem,
    main,
    parse_set_descriptor,
)
from pdflow.sets import Ball, Box, FreeSpace, NonnegativeOrthant, Product

EXAMPLE1_DOC = {
    "objective": {"type": "linear", "c": [1.0, 3.0]},
    "A": [[1.0, -1.0]],
    "b": [0.0],
    "set": {"type": "box", "lower": [2.0, "-inf"], "upper": ["inf", "inf"]},
}

P3_TEXT = "3\n1 2\n2 3\n"


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run_module(*args):
    """``python -W error::RuntimeWarning -m pdflow *args`` in a child, with
    the package found on PYTHONPATH alone, as from a checkout's src/."""
    src = str(Path(pdflow.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "pdflow", *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def assert_summary(out, *, converged, steps, residual, objective, outputs, lambda2=None):
    """Every line of the printed run summary; the wall time by its pattern."""
    expected = [
        f"converged:      {'yes' if converged else 'no'}",
        f"steps:          {steps}",
        f"final residual: {residual:.6e}",
        f"objective:      {objective:.10g}",
    ]
    if lambda2 is not None:
        expected.append(f"lambda2:        {lambda2:.10g}")
    lines = out.splitlines()
    wall = lines[len(expected)] if len(lines) > len(expected) else ""
    assert re.fullmatch(r"wall time:      \d+\.\d\d s", wall), lines
    expected.append(wall)
    expected += [f"wrote:          {path}" for path in outputs]
    assert lines == expected


class TestSetDescriptors:
    def test_free(self):
        s = parse_set_descriptor({"type": "free", "dim": 3})
        assert isinstance(s, FreeSpace) and s.dim == 3

    def test_nonnegative(self):
        s = parse_set_descriptor({"type": "nonnegative", "dim": 2})
        assert isinstance(s, NonnegativeOrthant)

    def test_box_with_sentinels(self):
        s = parse_set_descriptor({"type": "box", "lower": [0, None], "upper": ["inf", 5]})
        assert isinstance(s, Box)
        assert s.lower[1] == -np.inf and s.upper[0] == np.inf

    def test_ball(self):
        s = parse_set_descriptor({"type": "ball", "center": [0.0, 0.0], "radius": 2.0})
        assert isinstance(s, Ball) and s.radius == 2.0

    def test_product(self):
        s = parse_set_descriptor(
            {
                "type": "product",
                "components": [
                    {"type": "nonnegative", "dim": 2},
                    {"type": "free", "dim": 1},
                ],
            }
        )
        assert isinstance(s, Product) and s.dim == 3

    def test_unknown_type(self):
        with pytest.raises(ValueError, match="unknown set type"):
            parse_set_descriptor({"type": "simplex", "dim": 2})

    def test_bad_bound_string(self):
        with pytest.raises(ValueError, match="bad bound"):
            parse_set_descriptor({"type": "box", "lower": ["two"], "upper": [3]})


class TestLoadProblem:
    def test_example1_roundtrip(self, tmp_path):
        p = load_problem(write_problem(tmp_path, EXAMPLE1_DOC))
        assert p.dim == 2 and p.num_constraints == 1
        assert p.objective.evaluate(np.array([2.0, 2.0])) == 8.0

    def test_quadratic_objective(self, tmp_path):
        doc = {
            "objective": {"type": "quadratic", "Q": [[1.0, 0.0], [0.0, 1.0]], "c": [0.0, 0.0]},
            "set": {"type": "free", "dim": 2},
        }
        p = load_problem(write_problem(tmp_path, doc))
        assert p.num_constraints == 0
        assert p.objective.evaluate(np.array([1.0, 1.0])) == 1.0

    def test_empty_constraints(self, tmp_path):
        # [] means no constraints, for A and b alike
        doc = dict(EXAMPLE1_DOC, A=[], b=[])
        assert load_problem(write_problem(tmp_path, doc)).num_constraints == 0

    def test_json_error_mentions_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"objective": ')
        with pytest.raises(ValueError, match="line"):
            load_problem(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        doc = dict(EXAMPLE1_DOC, A=[[1.0, -1.0, 0.0]])
        with pytest.raises(ValueError):
            load_problem(write_problem(tmp_path, doc))


class TestSolveCommand:
    def test_example1_file_converges(self, tmp_path, capsys):
        path = write_problem(tmp_path, EXAMPLE1_DOC)
        code = main(
            ["solve", str(path), "--dt", "1e-2", "--tol", "1e-8", "--output", str(tmp_path)]
        )
        assert code == EXIT_CONVERGED
        out = capsys.readouterr().out
        assert "converged:      yes" in out
        header, rows = read_csv(tmp_path / "problem_trajectory.csv")
        assert header == ["t", "x_1", "x_2", "v_1", "objective", "residual"]
        final = [float(c) for c in rows[-1]]
        assert abs(final[1] - 2.0) <= 1e-6 and abs(final[2] - 2.0) <= 1e-6
        assert abs(final[4] - 8.0) <= 1e-6
        for row in rows:
            assert all(np.isfinite(float(c)) for c in row)

    def test_summary_lines(self, tmp_path, capsys):
        path = write_problem(tmp_path, EXAMPLE1_DOC)
        argv = ["solve", str(path), "--steps", "50", "--tol", "1e-12", "--output", str(tmp_path)]
        assert main(argv) == EXIT_STEP_BUDGET
        csv_path = tmp_path / "problem_trajectory.csv"
        _, rows = read_csv(csv_path)
        assert_summary(
            capsys.readouterr().out,
            converged=False,
            steps=50,
            residual=float(rows[-1][-1]),
            objective=float(rows[-1][-2]),
            outputs=[csv_path],
        )

    @pytest.mark.parametrize(
        "c,message", [([1.0, 2.0, 3.0], "c must have 2 entries"), (5.0, "c must be a vector")]
    )
    def test_objective_of_wrong_shape_is_input_error(self, tmp_path, capsys, c, message):
        doc = {"objective": {"type": "linear", "c": c}, "set": {"type": "nonnegative", "dim": 2}}
        path = write_problem(tmp_path, doc)
        assert main(["solve", str(path), "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert message in err and str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("dim", [2.7, True])
    def test_non_integer_dimension_is_input_error(self, tmp_path, capsys, dim):
        # neither truncated to 2 nor taken as 1
        doc = {"objective": {"type": "linear", "c": [1.0, 1.0]}, "set": {"type": "free", "dim": dim}}
        path = write_problem(tmp_path, doc)
        assert main(["solve", str(path), "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"set dimension must be an integer, got {dim!r}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "A,b,message",
        [
            ([1.0, -1.0], [0.0], "A must be a list of rows"),  # not read as one row
            ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [0.0] * 3, "A has 3 columns"),  # not 3x2
            ([[1.0, -1.0]], [[0.0]], "b must have 1 entries"),  # not flattened
        ],
        ids=["flat", "too-wide", "nested-b"],
    )
    def test_misshapen_constraint_matrix_is_input_error(self, tmp_path, capsys, A, b, message):
        path = write_problem(tmp_path, dict(EXAMPLE1_DOC, A=A, b=b))
        assert main(["solve", str(path), "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "doc,message",
        [
            ([EXAMPLE1_DOC], "top level must be an object"),
            ({k: v for k, v in EXAMPLE1_DOC.items() if k != "set"}, "missing key 'set'"),
            (dict(EXAMPLE1_DOC, set=["box"]), "set descriptor must be an object with a 'type' key"),
            (dict(EXAMPLE1_DOC, objective="linear"), "objective must be an object with a 'type' key"),
            (
                dict(EXAMPLE1_DOC, objective={"type": "quadratic", "c": [1.0, 3.0]}),
                "quadratic objective requires a 'Q' matrix",
            ),
            (
                dict(EXAMPLE1_DOC, objective={"type": "cubic", "c": [1.0, 3.0]}),
                "unknown objective type 'cubic'",
            ),
            (
                dict(EXAMPLE1_DOC, objective={"type": "quadratic", "Q": [[1.0]], "c": [1.0, 3.0]}),
                "Q must be square and match the dimension of c",
            ),
        ],
        ids=[
            "top-level-list", "missing-set", "set-not-object", "objective-not-object",
            "quadratic-without-Q", "unknown-objective", "Q-of-wrong-shape",
        ],
    )
    def test_malformed_document_is_input_error(self, tmp_path, capsys, doc, message):
        path = write_problem(tmp_path, doc)
        assert main(["solve", str(path), "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert message in err and str(path) in err and "Traceback" not in err

    def test_infinite_ball_radius_is_input_error(self, tmp_path, capsys):
        # json reads Infinity, which json.dumps writes for inf
        ball = {"type": "ball", "center": [0.0, 0.0], "radius": float("inf")}
        path = write_problem(tmp_path, dict(EXAMPLE1_DOC, set=ball))
        assert "Infinity" in path.read_text()
        assert main(["solve", str(path), "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "radius must be positive and finite" in err and "Traceback" not in err

    def test_zero_dimensional_set_is_input_error(self, tmp_path, capsys):
        doc = {"objective": {"type": "linear", "c": []}, "set": {"type": "free", "dim": 0}}
        path = write_problem(tmp_path, doc)
        assert main(["solve", str(path), "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "set has dimension 0" in err and "Traceback" not in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.json")]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json at all")
        assert main(["solve", str(path)]) == EXIT_INPUT

    def test_step_budget_exit(self, tmp_path):
        path = write_problem(tmp_path, EXAMPLE1_DOC)
        code = main(
            ["solve", str(path), "--steps", "3", "--tol", "1e-12", "--output", str(tmp_path)]
        )
        assert code == EXIT_STEP_BUDGET

    def test_divergence_exit_with_hint(self, tmp_path, capsys):
        doc = {
            "objective": {"type": "quadratic", "Q": [[1.0]], "c": [0.0]},
            "A": [[1.0]],
            "b": [1.0],
            "set": {"type": "free", "dim": 1},
        }
        path = write_problem(tmp_path, doc)
        code = main(["solve", str(path), "--dt", "1e6", "--output", str(tmp_path)])
        assert code == EXIT_DIVERGED
        assert "reduce --dt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("c", [1.0, float("nan")], "c must be finite"),
            ("Q", [[1.0, float("nan")], [float("nan"), 1.0]], "Q must be finite"),
            ("A", [[1.0, float("nan")]], "A must be finite"),
            ("b", ["inf"], "b must be finite"),
            ("rho", "inf", "rho must be positive and finite"),
        ],
    )
    def test_non_finite_data_is_input_error(self, tmp_path, capsys, key, value, message):
        doc = dict(EXAMPLE1_DOC)
        if key == "c":
            doc["objective"] = {"type": "linear", "c": value}
        elif key == "Q":
            doc["objective"] = {"type": "quadratic", "Q": value, "c": [1.0, 3.0]}
        else:
            doc[key] = value
        path = write_problem(tmp_path, doc)
        assert main(["solve", str(path), "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key,value",
        [("rho", True), ("rho", "2"), ("radius", True), ("radius", "2")],
    )
    def test_scalar_must_be_a_json_number(self, tmp_path, capsys, key, value):
        # neither taken as 1 nor converted from the string
        doc = dict(EXAMPLE1_DOC, rho=value)
        if key == "radius":
            doc = dict(EXAMPLE1_DOC, set={"type": "ball", "center": [0.0, 0.0], "radius": value})
        path = write_problem(tmp_path, doc)
        assert main(["solve", str(path), "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{key} must be positive and finite" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key,edit",
        [
            ("c", {"objective": {"type": "linear", "c": [True, 3.0]}}),
            ("A", {"A": [[1.0, False]]}),
            ("b", {"b": [False]}),
            ("lower", {"set": {"type": "box", "lower": [True, "-inf"], "upper": ["inf", "inf"]}}),
        ],
    )
    def test_boolean_in_an_array_is_input_error(self, tmp_path, capsys, key, edit):
        # numpy and float() read true as 1 and false as 0
        path = write_problem(tmp_path, dict(EXAMPLE1_DOC, **edit))
        assert main(["solve", str(path), "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{path}: {key} holds the boolean " in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_integer_past_the_float_range_is_input_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, dict(EXAMPLE1_DOC, rho=10**400))
        assert main(["solve", str(path), "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "too large to convert to float" in err and str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000 + "]" * 100_000,  # json.loads recurses
            '{"objective": {"type": "linear", "c": [1.0]}, "set": '
            + '{"type": "product", "components": [' * 300
            + '{"type": "free", "dim": 1}'
            + "]}" * 300
            + "}",  # json.loads reads it; parse_set_descriptor recurses
        ],
        ids=["json", "product"],
    )
    def test_deeply_nested_file_is_input_error(self, tmp_path, capsys, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert main(["solve", str(path), "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{path}: nested too deeply" in err and "Traceback" not in err

    def test_seed_reproducible_bytes(self, tmp_path):
        path = write_problem(tmp_path, EXAMPLE1_DOC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main(
                ["solve", str(path), "--dt", "1e-2", "--seed", "7", "--output", str(out)]
            )
            assert code == EXIT_CONVERGED
        data1 = (out1 / "problem_trajectory.csv").read_bytes()
        data2 = (out2 / "problem_trajectory.csv").read_bytes()
        assert data1 == data2

    def test_kernel_overflow_is_input_error(self, tmp_path):
        # finite data whose rho A^T A and rho A^T b overflow: no dt can
        # help, so it is bad input, refused without a RuntimeWarning
        doc = {
            "objective": {"type": "linear", "c": [1]},
            "set": {"type": "box", "lower": [0], "upper": [1]},
            "A": [[1e300]],
            "b": [1e300],
        }
        proc = run_module("solve", str(write_problem(tmp_path, doc)), "--output", str(tmp_path))
        assert proc.returncode == EXIT_INPUT
        assert proc.stderr == "error: Q + rho A^T A or rho A^T b - c overflows; scale the problem down\n"

    def test_different_seeds_differ(self, tmp_path):
        path = write_problem(tmp_path, EXAMPLE1_DOC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", str(path), "--dt", "1e-2", "--seed", "1", "--output", str(out1)])
        main(["solve", str(path), "--dt", "1e-2", "--seed", "2", "--output", str(out2)])
        assert (out1 / "problem_trajectory.csv").read_bytes() != (
            out2 / "problem_trajectory.csv"
        ).read_bytes()


class TestConnectivityCommand:
    def test_p3_run_and_outputs(self, tmp_path):
        graph_path = tmp_path / "p3.txt"
        graph_path.write_text(P3_TEXT)
        code = main(
            [
                "connectivity",
                str(graph_path),
                "--steps", "500",
                "--tol", "1e-30",
                "--record-stride", "100",
                "--output", str(tmp_path),
            ]
        )
        assert code == EXIT_STEP_BUDGET  # tiny tol: stops on the step budget
        header, rows = read_csv(tmp_path / "p3_history.csv")
        assert header[:4] == ["round", "objective", "lambda2", "residual"]
        assert header[4:] == ["w_1_1", "w_2_1", "w_2_2", "w_3_2"]
        assert [int(r[0]) for r in rows] == [0, 100, 200, 300, 400, 500]
        wheader, wrows = read_csv(tmp_path / "p3_weights.csv")
        assert wheader == ["edge", "node_a", "node_b", "contribution_a", "contribution_b", "total"]
        assert len(wrows) == 2
        for row in wrows:
            assert float(row[5]) == float(row[3]) + float(row[4])

    def test_summary_lines(self, tmp_path, capsys):
        graph_path = tmp_path / "p3.txt"
        graph_path.write_text(P3_TEXT)
        argv = ["connectivity", str(graph_path), "--steps", "300", "--tol", "1e-30"]
        assert main(argv + ["--output", str(tmp_path)]) == EXIT_STEP_BUDGET
        history_path, weights_path = tmp_path / "p3_history.csv", tmp_path / "p3_weights.csv"
        _, rows = read_csv(history_path)
        rnd, objective, lambda2, residual = rows[-1][:4]
        assert_summary(
            capsys.readouterr().out,
            converged=False,
            steps=int(rnd),
            residual=float(residual),
            objective=float(objective),
            lambda2=float(lambda2),
            outputs=[history_path, weights_path],
        )
        assert int(rnd) == 300

    def test_disconnected_graph(self, tmp_path, capsys):
        graph_path = tmp_path / "bad.txt"
        graph_path.write_text("4\n1 2\n3 4\n")
        assert main(["connectivity", str(graph_path)]) == EXIT_INPUT
        assert "not connected" in capsys.readouterr().err

    def test_input_too_large_to_allocate(self, tmp_path, capsys, monkeypatch):
        # numpy's MemoryError is a bad input (exit 2), not a traceback and
        # exit 1, which means the step budget
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 728. TiB for an array")

        monkeypatch.setattr(pdflow.connectivity, "simulate", too_large)
        graph_path = tmp_path / "p3.txt"
        graph_path.write_text(P3_TEXT)
        assert main(["connectivity", str(graph_path), "--output", str(tmp_path)]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: Unable to allocate 728. TiB for an array\n"

    def test_single_node_graph(self, tmp_path, capsys):
        graph_path = tmp_path / "one.txt"
        graph_path.write_text("1\n")
        assert main(["connectivity", str(graph_path)]) == EXIT_INPUT
        assert "connectivity needs at least 2 nodes" in capsys.readouterr().err

    def test_threads_option_removed(self, tmp_path):
        graph_path = tmp_path / "p3.txt"
        graph_path.write_text(P3_TEXT)
        with pytest.raises(SystemExit) as exc:
            main(["connectivity", str(graph_path), "--threads", "2"])
        assert exc.value.code == EXIT_INPUT

    def test_seed_reproducible(self, tmp_path):
        graph_path = tmp_path / "p3.txt"
        graph_path.write_text(P3_TEXT)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(
                [
                    "connectivity",
                    str(graph_path),
                    "--steps", "200",
                    "--tol", "1e-30",
                    "--seed", "11",
                    "--output", str(out),
                ]
            )
            outs.append((out / "p3_history.csv").read_bytes())
        assert outs[0] == outs[1]


class TestExamplesCommand:
    def test_example1(self, tmp_path, capsys):
        code = main(
            ["examples", "example1", "--dt", "1e-2", "--tol", "1e-8", "--output", str(tmp_path)]
        )
        assert code == EXIT_CONVERGED
        assert (tmp_path / "example1_trajectory.csv").exists()
        out = capsys.readouterr().out
        assert "objective:      8" in out

    def test_summary_lines(self, tmp_path, capsys):
        argv = ["examples", "example1", "--dt", "1e-2", "--output", str(tmp_path)]
        assert main(argv) == EXIT_CONVERGED
        csv_path = tmp_path / "example1_trajectory.csv"
        _, rows = read_csv(csv_path)
        assert_summary(
            capsys.readouterr().out,
            converged=True,
            steps=round(float(rows[-1][0]) / 1e-2),
            residual=float(rows[-1][-1]),
            objective=float(rows[-1][-2]),
            outputs=[csv_path],
        )

    @pytest.mark.parametrize(
        "name,flag",
        [
            ("example1", "--epsilon"),
            ("example2", "--epsilon"),
            ("example3", "--integrator"),
            ("example4", "--integrator"),
        ],
    )
    def test_inapplicable_flag_is_input_error(self, tmp_path, capsys, name, flag):
        value = "5" if flag == "--epsilon" else "rk4"
        assert main(["examples", name, flag, value, "--output", str(tmp_path)]) == EXIT_INPUT
        assert f"{flag} does not apply to {name}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "name,flag,value,field",
        [
            ("example2", "--tol", "inf", "tol"),
            ("example1", "--dt", "inf", "dt"),
            ("example4", "--epsilon", "1e400", "eps"),
        ],
    )
    def test_non_finite_run_parameter_is_input_error(
        self, tmp_path, capsys, name, flag, value, field
    ):
        assert main(["examples", name, flag, value, "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{field} must be positive and finite" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "name,flag,field",
        [("example1", "--steps", "max_steps"), ("example3", "--record-stride", "record_stride")],
    )
    def test_count_below_one_is_input_error(self, tmp_path, capsys, name, flag, field):
        assert main(["examples", name, flag, "0", "--output", str(tmp_path)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{field} must be at least 1" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_unknown_name_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["examples", "example9"])
        assert exc.value.code == EXIT_INPUT

    def test_example3_budgeted_run_writes_history(self, tmp_path):
        code = main(
            ["examples", "example3", "--steps", "100", "--tol", "1e-30", "--output", str(tmp_path)]
        )
        assert code == EXIT_STEP_BUDGET
        assert (tmp_path / "example3_history.csv").exists()
        assert (tmp_path / "example3_weights.csv").exists()

    def test_example3_default_settings_reach_optimum(self, tmp_path, capsys):
        code = main(["examples", "example3", "--output", str(tmp_path)])
        assert code == EXIT_CONVERGED
        _, rows = read_csv(tmp_path / "example3_history.csv")
        assert abs(float(rows[-1][2]) - 1.5) <= 0.05  # lambda2 column
        _, wrows = read_csv(tmp_path / "example3_weights.csv")
        totals = sorted(float(r[5]) for r in wrows)
        assert all(abs(t - 1.5) <= 0.1 for t in totals)

    def test_example2_reaches_reference_value(self, tmp_path):
        # larger step than the preset default, same optimum, faster test
        code = main(
            ["examples", "example2", "--dt", "2e-3", "--output", str(tmp_path)]
        )
        assert code == EXIT_CONVERGED
        _, rows = read_csv(tmp_path / "example2_trajectory.csv")
        assert abs(float(rows[-1][-2]) + 76.0) <= 1e-1  # objective column

    def test_python_dash_m_from_checkout(self, tmp_path):
        # python -m pdflow finds the package on PYTHONPATH alone, as from a
        # checkout's src/ without installing it
        proc = run_module("examples", "example1", "--output", str(tmp_path))
        assert proc.returncode == EXIT_CONVERGED, proc.stderr
        assert "converged:      yes" in proc.stdout
        assert (tmp_path / "example1_trajectory.csv").exists()


@pytest.mark.parametrize("argv", [["solve", "problem.json"], ["connectivity", "p3.txt"], ["examples", "example1"]])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv):
    # numpy's generators take nonnegative seeds only; argparse names the flag
    write_problem(tmp_path, EXAMPLE1_DOC)
    (tmp_path / "p3.txt").write_text(P3_TEXT)
    argv = [str(tmp_path / a) if a.endswith((".json", ".txt")) else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1", "--output", str(tmp_path / "out")])
    assert exc.value.code == EXIT_INPUT
    assert "error: argument --seed: must be a nonnegative integer, got -1\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestOutputDirectory:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "problem.json"],
            ["connectivity", "p3.txt"],
            ["examples", "example1"],
            ["examples", "example4"],
        ],
    )
    def test_unusable_output_fails_before_the_run(self, tmp_path, monkeypatch, capsys, argv):
        def never(*args, **kwargs):
            raise AssertionError("the run started although --output is unusable")

        monkeypatch.setattr("pdflow.cli.solve", never)
        monkeypatch.setattr("pdflow.connectivity.simulate", never)
        write_problem(tmp_path, EXAMPLE1_DOC)
        (tmp_path / "p3.txt").write_text(P3_TEXT)
        afile = tmp_path / "afile"
        afile.write_text("")
        argv = [str(tmp_path / a) if a.endswith((".json", ".txt")) else a for a in argv]
        assert main(argv + ["--output", str(afile)]) == EXIT_INPUT
        assert "File exists" in capsys.readouterr().err

    def test_refused_problem_makes_no_directory(self, tmp_path):
        # K overflows: the input is refused before --output is created
        doc = {
            "objective": {"type": "linear", "c": [1]},
            "set": {"type": "box", "lower": [0], "upper": [1]},
            "A": [[1e300]],
            "b": [1e300],
        }
        out = tmp_path / "newout"
        assert main(["solve", str(write_problem(tmp_path, doc)), "--output", str(out)]) == EXIT_INPUT
        assert not out.exists()
