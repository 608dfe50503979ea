"""Golden tests for the command line frontend.

Each subcommand is exercised through main() with captured output; the
table-producing commands are checked byte for byte against frozen
snapshots and against the library calls they wrap, and the exit code
contract (0 ok, 1 usage, 2 domain) is pinned on representative errors.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import bflow
from bflow.algebra import render_sum
from bflow.bseries_hopf import builtin_tableau, convolve_bck, rk_character
from bflow.cli import main
from bflow.forest_core import enumerate_trees

EULER_TABLEAU_TEXT = "1\n0\n1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlgebraCommands:
    def test_trees_table(self, capsys):
        code, out, _ = run(capsys, "trees", "-N", "3")
        assert code == 0
        assert out == (
            "[]\t1\t1\t1\n"
            "[[]]\t2\t1\t2\n"
            "[[[]]]\t3\t1\t6\n"
            "[[][]]\t3\t2\t3\n"
        )

    def test_planar_forest_listing(self, capsys):
        code, out, _ = run(capsys, "trees", "-N", "2", "--planar", "--forests")
        assert code == 0
        assert out == "[]\t1\n[[]]\t2\n[] []\t2\n"

    @pytest.mark.parametrize(
        "algebra,element,expected",
        [
            ("cefm", "[]", "[] (x) []"),
            (
                "bck",
                "[[][]]",
                "[[][]] (x) 1 + [] [] (x) [] + 2 * [] (x) [[]] + 1 (x) [[][]]",
            ),
            (
                "mkw",
                "[[]] []",
                "[[]] [] (x) 1 + [[]] (x) [] + [] (x) [] [] + 1 (x) [[]] []",
            ),
            ("fdb", "d2", "d1.d1 (x) d2 + d2 (x) d1"),
            ("fdb", "1", "1 (x) 1"),
        ],
    )
    def test_coproduct_single_element(self, capsys, algebra, element, expected):
        code, out, _ = run(capsys, "coproduct", algebra, element)
        assert code == 0
        assert out == expected + "\n"

    def test_coproduct_table_is_byte_stable(self, capsys):
        code, first, _ = run(capsys, "coproduct", "bck", "--table", "2")
        assert code == 0
        assert first == (
            "[]\t[] (x) 1 + 1 (x) []\n"
            "[[]]\t[[]] (x) 1 + [] (x) [] + 1 (x) [[]]\n"
            "[] []\t[] [] (x) 1 + 2 * [] (x) [] + 1 (x) [] []\n"
        )
        _, second, _ = run(capsys, "coproduct", "bck", "--table", "2")
        assert second == first

    def test_coproduct_needs_input(self, capsys):
        code, _, err = run(capsys, "coproduct", "bck")
        assert code == 1
        assert "usage error" in err

    def test_parse_failure_reports_position(self, capsys):
        code, _, err = run(capsys, "coproduct", "bck", "[[")
        assert code == 1
        assert "position" in err


class TestAnalysisCommands:
    def test_compose_matches_library(self, capsys):
        code, out, _ = run(capsys, "compose", "--first", "euler", "--second", "euler", "-N", "3")
        assert code == 0
        assert out == "1\t1\n[]\t2\n[[]]\t1\n[[][]]\t1\n"
        composed = convolve_bck(
            rk_character(builtin_tableau("euler"), 3),
            rk_character(builtin_tableau("euler"), 3),
            3,
        )
        rows = [f"1\t{composed.unit_value()}"]
        for n in range(1, 4):
            for tree in enumerate_trees(n):
                value = composed.tree_value(tree)
                if value:
                    rows.append(f"{tree.serial}\t{value}")
        assert out == "\n".join(rows) + "\n"

    def test_modified_backward_error_rows(self, capsys):
        code, out, _ = run(
            capsys, "modified", "--builtin", "euler", "--mode", "backward_error", "-N", "2"
        )
        assert code == 0
        assert out == "[]\t1\n[[]]\t-1/2\n"

    def test_substitute_solved_field_recovers_the_method(self, capsys):
        code, out, _ = run(
            capsys,
            "substitute",
            "--builtin",
            "euler",
            "--mode",
            "backward_error",
            "--into",
            "exact",
            "-N",
            "3",
        )
        assert code == 0
        assert out == "1\t1\n[]\t1\n"

    def test_order_of_rk4(self, capsys):
        code, out, _ = run(capsys, "order", "--builtin", "rk4", "-N", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "order: 4"
        assert lines[1].startswith("first violation: ")
        assert "order: " in out

    def test_order_from_tableau_file(self, capsys, tmp_path):
        path = tmp_path / "euler.txt"
        path.write_text(EULER_TABLEAU_TEXT)
        code, out, _ = run(capsys, "order", "--tableau", str(path), "-N", "3")
        assert code == 0
        assert out.splitlines()[0] == "order: 1"

    def test_geometric_verdicts(self, capsys):
        code, out, _ = run(
            capsys, "geometric", "--builtin", "implicit_midpoint", "--kind", "symplectic", "-N", "4"
        )
        assert code == 0
        assert out == "OK\n"
        code, out, _ = run(
            capsys, "geometric", "--builtin", "euler", "--kind", "symplectic", "-N", "2"
        )
        assert code == 0
        assert out.splitlines()[0] == "violation: [] | []"

    def test_series_rows(self, capsys):
        code, out, _ = run(
            capsys, "series", "--method", "lie_implicit_midpoint", "--rep", "type1", "-N", "3"
        )
        assert code == 0
        assert out == "[]\t1\n[[]]\t1/2\n[[[]]]\t1/4\n[[][]]\t1/8\n"
        code, out, _ = run(
            capsys, "series", "--method", "exponential_euler", "--rep", "type3", "-N", "2"
        )
        assert code == 0
        assert out == "[]\t1\n"

    @pytest.mark.parametrize(
        "argv,lines,digest",
        [
            (
                "compose --first rk4 --second rk4 -N 8",
                201,
                "24c353e1ebddc177178e4e20c7b6f44b1e4d00dfef9da2f9a277182210387d4e",
            ),
            (
                "modified --builtin rk4 --mode backward_error -N 8",
                144,
                "73593b35a9cf36770240697aa147b80e9380c2f2c6b980f408bfa745900470b6",
            ),
            (
                "modified --builtin rk4 --mode modifying_integrator -N 8",
                144,
                "7002516e7bd1eb03b2c0ec6631e2afbb402870d250db113c1032f62ad1869c4a",
            ),
            (
                "substitute --builtin rk4 --mode backward_error --into exact -N 8",
                114,
                "a9c60f6e0cea665c60d5b0f4036aef06d6bfab0aa0f922cf5b601b73041542c4",
            ),
            (
                "substitute --builtin rk4 --mode modifying_integrator --into rk4 -N 8",
                201,
                "b38378f249d7e15b98cc5656ae7a96c2c3653ad1486ebb8e02d7615173001baf",
            ),
            (
                "coproduct bck --table 8",
                485,
                "ad2cb714c6cfe2bcd2ccd252082fb3da62cc73950183d185422a339e53ee1f92",
            ),
            (
                "coproduct cefm --table 8",
                200,
                "bd2d2a044f60891777cd1d7be3c50ab5875df3b1e79612e29a727ca66bf8c786",
            ),
        ],
        ids=[
            "compose",
            "modified_backward_error",
            "modified_modifying",
            "substitute_be",
            "substitute_mi",
            "coproduct_bck",
            "coproduct_cefm",
        ],
    )
    def test_order_eight_tables_are_pinned(self, capsys, argv, lines, digest):
        # line counts and sha256 of the stdout as printed when every sum
        # (and every coproduct and antipode) was accumulated term by term
        # in Fractions
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,lines,digest",
        [
            (
                "coproduct mkw --table 7",
                625,
                "79cae3ef8195f01e7a2e54baa731336cedba23328cc3dabf73b51d92c0d39e5d",
            ),
            (
                "series --method lie_implicit_midpoint --rep type3 -N 7",
                607,
                "6600a239160cd59f7de72e06b694e74e6ae92fe0c713e1fd7f31f78c39472ba5",
            ),
        ],
        ids=["coproduct_mkw", "series_midpoint_type3"],
    )
    def test_planar_order_seven_tables_are_pinned(self, capsys, argv, lines, digest):
        # line counts and sha256 of the stdout as printed when the Dynkin
        # map was expanded afresh for every word of every map
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert len(out.splitlines()) == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestRunCommands:
    def test_integrate_rotation_with_norm_drift(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate",
            "--method",
            "lie_euler",
            "--action",
            "rotation",
            "--steps",
            "10",
            "--h",
            "0.1",
            "--check-invariant",
            "norm",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "step,t,y0,y1,y2,norm_drift"
        assert len(lines) == 11
        drifts = [float(line.split(",")[-1]) for line in lines[1:]]
        assert max(drifts) <= 1e-12

    def test_integrate_is_byte_stable(self, capsys):
        args = (
            "integrate", "--method", "cf4", "--action", "rotation",
            "--steps", "5", "--h", "0.2",
        )
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_translation_reduction_rows_match_classical(self, capsys):
        base = (
            "--action", "translation", "--f", "linear",
            "--steps", "4", "--h", "0.2",
        )
        _, classical, _ = run(capsys, "integrate", "--method", "euler", *base)
        _, lie, _ = run(capsys, "integrate", "--method", "lie_euler", *base)
        assert classical == lie

    def test_custom_polynomial_field(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate",
            "--method",
            "euler",
            "--action",
            "translation",
            "--f",
            "y0",
            "--steps",
            "1",
            "--h",
            "0.5",
        )
        assert code == 0
        assert out.splitlines()[1] == "1,0.5,1.5"

    def test_custom_tableau_runs_classically(self, capsys, tmp_path):
        path = tmp_path / "euler.txt"
        path.write_text(EULER_TABLEAU_TEXT)
        base = ("--action", "translation", "--f", "linear", "--steps", "3", "--h", "0.1")
        _, custom, _ = run(capsys, "integrate", "--method", "custom", "--tableau", str(path), *base)
        _, builtin, _ = run(capsys, "integrate", "--method", "euler", *base)
        assert custom == builtin

    def test_isospectral_spectrum_drift(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate",
            "--method",
            "lie_rk4",
            "--action",
            "isospectral",
            "--steps",
            "5",
            "--h",
            "0.05",
            "--check-invariant",
            "spectrum",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("eig_drift")
        assert len(lines) == 6
        assert max(float(line.split(",")[-1]) for line in lines[1:]) <= 1e-12

    def test_converge_csv_shape_and_slope(self, capsys):
        code, out, _ = run(
            capsys,
            "converge",
            "--method",
            "cf4",
            "--action",
            "rotation",
            "--h",
            "0.2,0.1,0.05,0.025",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method,h,error,slope_estimate"
        assert len(lines) == 6
        assert lines[1].startswith("cf4,") and lines[1].endswith(",")
        pair_slopes = [float(line.split(",")[3]) for line in lines[2:5]]
        assert all(abs(s - 4.0) <= 0.2 for s in pair_slopes)
        assert lines[5].startswith("# least-squares slope: ")
        assert abs(float(lines[5].split(": ")[1]) - 4.0) <= 0.2

    def test_converge_writes_a_file(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys,
            "converge",
            "--method",
            "lie_midpoint",
            "--action",
            "rotation",
            "--h",
            "0.2,0.1,0.05",
            "--out",
            str(path),
        )
        assert code == 0
        assert out == ""
        lines = path.read_text().splitlines()
        assert lines[0] == "method,h,error,slope_estimate"
        assert abs(float(lines[-1].split(": ")[1]) - 2.0) <= 0.15

    def test_y0_override(self, capsys):
        code, out, _ = run(
            capsys,
            "integrate",
            "--method",
            "lie_euler",
            "--action",
            "rotation",
            "--steps",
            "1",
            "--h",
            "0.1",
            "--y0",
            "0,0.6,0.8",
        )
        assert code == 0
        state = [float(v) for v in out.splitlines()[1].split(",")[2:]]
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_y0_with_a_negative_first_component(self, capsys):
        base = ["integrate", "--method", "lie_rk4", "--action", "rotation"]
        base += ["--h", "0.01", "--steps", "2"]
        code, spaced, err = run(capsys, *base, "--y0", "-0.6,0.8,0")
        assert code == 0, err
        code, joined, _ = run(capsys, *base, "--y0=-0.6,0.8,0")
        assert code == 0
        assert spaced == joined
        assert joined.splitlines()[1].split(",")[2].startswith("-0.6")


_HEAVY = ("numpy", "scipy", "sympy")


@pytest.mark.parametrize(
    "code, absent",
    [
        ("import bflow.cli", _HEAVY),
        ("from bflow.cli import main; main(['trees', '-N', '3'])", _HEAVY),
        ("import bflow.integrators", ("scipy", "sympy")),
        (
            "from bflow.integrators import integrate, toda_problem\n"
            "integrate('lie_rk4', toda_problem(), 0.01, 10)",
            ("scipy", "sympy", "bflow.poly"),
        ),
        (
            "from bflow.integrators import PolyVectorField\n"
            "PolyVectorField.from_strings(['y0**2', 'y0*y1 - 1/3']).as_callable()([0.5, 2.0])",
            ("scipy", "sympy"),
        ),
        (
            "from bflow.bseries_hopf import builtin_tableau, rk_character, solve_modified\n"
            "from bflow.integrators import PolyVectorField, modified_field\n"
            "beta = solve_modified(rk_character(builtin_tableau('euler'), 3), 'backward_error', 3)\n"
            "modified_field(beta, PolyVectorField.from_strings(['y0**2']), 'h', 3)",
            ("scipy", "sympy"),
        ),
        (
            "from bflow.cli import main\n"
            "main(['integrate', '--method', 'lie_rk4', '--action', 'translation',\n"
            "      '--f', 'y0**2,y1', '--h', '0.1', '--steps', '3'])",
            ("scipy", "sympy"),
        ),
    ],
)
def test_start_up_leaves_heavy_modules_unloaded(code, absent):
    """The exact commands run without numpy, sympy or scipy. The float
    layer never loads sympy, polynomial fields included; it loads
    ``bflow.poly`` only for a polynomial field and scipy only for an
    exponential the closed forms do not cover."""
    probe = f"{code}\nimport sys\nprint(sorted(set({absent!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bflow.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines()[-1] == "[]"


_ADDRESS_PROBE = """
import sys
# objects allocated ahead of bflow move every address it takes afterwards
junk = [bytearray(64) for _ in range(int(sys.argv[1]))]
from bflow.cli import main
for argv in (
    ["coproduct", "bck", "--table", "6"],
    ["coproduct", "cefm", "[[][[]]]"],
    ["coproduct", "mkw", "[[]] [1:[][]]"],
    ["modified", "--builtin", "rk4", "--mode", "backward_error", "-N", "6"],
):
    assert main(argv) == 0
"""


def test_outputs_do_not_depend_on_memory_addresses():
    """Trees and forests hash by identity, so by address: no output may
    follow the iteration order of a set of them. Two fresh processes with
    different hash seeds, one of them holding a few MB of other objects
    first, print the same bytes."""
    src = os.path.dirname(os.path.dirname(bflow.__file__))
    outs = []
    for seed, junk in (("1", "0"), ("2", "40000")):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", _ADDRESS_PROBE, junk],
            capture_output=True, env=env, check=True,
        )
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 84 + 1 + 1 + 20


_SYMPY_BLOCKED = """
import sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from fractions import Fraction
from bflow.bseries_hopf import builtin_tableau, exact_gamma, rk_character, solve_modified
from bflow.cli import main
from bflow.integrators import PolyVectorField, eval_bseries, modified_field

F = PolyVectorField.from_strings(["y0**2", "y0*y1 - 1/3"])
print(eval_bseries(exact_gamma(5), F, [Fraction(1, 2), Fraction(2)], Fraction(1, 10), 5))
beta = solve_modified(rk_character(builtin_tableau("euler"), 4), "backward_error", 4)
print(modified_field(beta, F, Fraction(1, 10), 4).exprs)
Fh = modified_field(beta, F, "h", 4)
print((Fh.params, Fh.exprs))
print(eval_bseries(exact_gamma(4), Fh, [Fraction(1, 2), Fraction(2)], "h", 4))
sys.exit(main(["integrate", "--method", "lie_rk4", "--action", "translation",
               "--f", "y0**2,y1", "--h", "0.01", "--steps", "20"]))
"""


def test_field_layer_runs_with_sympy_blocked(capsys):
    """With every import of sympy refused, polynomial fields, series
    evaluation, modified fields (rational and symbolic h) and
    ``integrate --f`` give what they give in this process."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bflow.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _SYMPY_BLOCKED], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()

    from fractions import Fraction

    from bflow.bseries_hopf import exact_gamma, solve_modified
    from bflow.integrators import PolyVectorField, eval_bseries, modified_field

    F = PolyVectorField.from_strings(["y0**2", "y0*y1 - 1/3"])
    y = [Fraction(1, 2), Fraction(2)]
    beta = solve_modified(rk_character(builtin_tableau("euler"), 4), "backward_error", 4)
    Fh = modified_field(beta, F, "h", 4)
    assert Fh.params == ("h",)
    assert lines[0] == str(eval_bseries(exact_gamma(5), F, y, Fraction(1, 10), 5))
    assert lines[1] == str(modified_field(beta, F, Fraction(1, 10), 4).exprs)
    assert lines[2] == str((Fh.params, Fh.exprs))
    assert lines[3] == str(eval_bseries(exact_gamma(4), Fh, y, "h", 4))
    code, out, _ = run(
        capsys, "integrate", "--method", "lie_rk4", "--action", "translation",
        "--f", "y0**2,y1", "--h", "0.01", "--steps", "20",
    )
    assert code == 0
    assert "\n".join(lines[4:]) + "\n" == out


class TestExitCodes:
    def test_missing_subcommand_is_usage(self, capsys):
        code, _, err = run(capsys)
        assert code == 1 and "usage error" in err

    def test_unknown_builtin_is_domain(self, capsys):
        code, _, err = run(capsys, "order", "--builtin", "nope", "-N", "3")
        assert code == 2 and "unknown tableau" in err

    def test_order_cap_fails_before_output(self, capsys):
        code, out, err = run(capsys, "trees", "-N", "99")
        assert code == 2
        assert out == ""
        assert "BF_MAX_ORDER" in err

    def test_cap_is_adjustable(self, capsys, monkeypatch):
        monkeypatch.setenv("BF_MAX_ORDER", "3")
        code, _, err = run(capsys, "trees", "-N", "4")
        assert code == 2 and "cap 3" in err
        monkeypatch.setenv("BF_MAX_ORDER", "9")
        code, out, _ = run(capsys, "trees", "-N", "9")
        assert code == 0
        assert len(out.splitlines()) == 486

    def test_classical_method_off_translation_is_domain(self, capsys):
        code, _, err = run(
            capsys,
            "integrate", "--method", "rk4", "--action", "rotation",
            "--steps", "2", "--h", "0.1",
        )
        assert code == 2 and "translation" in err

    def test_translation_requires_field(self, capsys):
        code, _, err = run(
            capsys,
            "integrate", "--method", "lie_euler", "--action", "translation",
            "--steps", "2", "--h", "0.1",
        )
        assert code == 2 and "--f" in err

    def test_coefficient_beyond_float_range_is_domain(self, capsys):
        code, out, err = run(
            capsys,
            "integrate", "--method", "lie_euler", "--action", "translation",
            "--f", "1e400*y0", "--h", "0.1", "--steps", "2",
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert "coefficient of y0" in err and "float range" in err

    def test_implicit_stages_blowing_up_exit_2(self, capsys):
        # The stages reach nan at step 19; no partial trajectory is printed.
        with np.errstate(all="ignore"):
            code, out, err = run(
                capsys,
                "integrate", "--method", "implicit_midpoint", "--action", "translation",
                "--f", "y0^2-0.3*y1,y1/3-y0*y1+1/7", "--h", "0.1", "--steps", "40",
            )
        assert code == 2 and out == ""
        assert "implicit stage iteration" in err and "residual nan" in err

    def test_implicit_stages_blowing_up_print_one_error_line(self):
        # In a fresh process, where numpy's warnings reach stderr unfiltered.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bflow.__file__)))
        done = subprocess.run(
            [
                sys.executable, "-m", "bflow.cli",
                "integrate", "--method", "implicit_midpoint", "--action", "translation",
                "--f", "y0^2-0.3*y1,y1/3-y0*y1+1/7", "--h", "0.1", "--steps", "40",
            ],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 2 and done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr

    @pytest.mark.parametrize("method", ["lie_midpoint", "rkmk:implicit_midpoint"])
    def test_lie_stages_overflowing_print_one_error_line(self, method):
        # The first sweep of y0^2 from 1e200 is inf, against a scale of
        # inf: an error, not a trajectory of inf.
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bflow.__file__)))
        done = subprocess.run(
            [
                sys.executable, "-m", "bflow.cli",
                "integrate", "--method", method, "--action", "translation",
                "--f", "y0^2", "--y0", "1e200", "--h", "1", "--steps", "2",
            ],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 2 and done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr
        assert method.split(":")[0] in lines[0] and "residual nan" in lines[0]

    def test_wrong_y0_length_is_domain(self, capsys):
        code, _, err = run(
            capsys,
            "integrate", "--method", "lie_euler", "--action", "rotation",
            "--steps", "1", "--h", "0.1", "--y0", "1,2",
        )
        assert code == 2 and "components" in err

    def test_spectrum_needs_matrix_state(self, capsys):
        code, _, err = run(
            capsys,
            "integrate", "--method", "lie_euler", "--action", "rotation",
            "--steps", "1", "--h", "0.1", "--check-invariant", "spectrum",
        )
        assert code == 2 and "symmetric" in err

    def test_too_few_step_sizes_is_domain(self, capsys):
        code, _, err = run(
            capsys,
            "converge", "--method", "lie_euler", "--action", "rotation",
            "--h", "0.1,0.05",
        )
        assert code == 2 and "three" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("integrate", "--method", "lie_euler", "--action", "rotation",
             "--h", "0.1", "--steps", "1", "--y0=a,b,c"),
            ("converge", "--method", "lie_rk4", "--action", "rotation",
             "--h", "0.1,x,0.2"),
        ],
        ids=["y0", "step_sizes"],
    )
    def test_malformed_number_list_is_usage(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and "usage error" in err
        assert "comma-separated numbers" in err
        assert out == ""

    def test_zero_step_size_is_domain(self, capsys):
        code, _, err = run(
            capsys,
            "converge", "--method", "lie_rk4", "--action", "rotation",
            "--h", "0,0.1,0.2",
        )
        assert code == 2 and "positive" in err

    def test_bad_choice_is_usage(self, capsys):
        code, _, err = run(capsys, "coproduct", "nope", "[]")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
