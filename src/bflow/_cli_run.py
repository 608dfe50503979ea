"""The integrate and converge subcommands of the command line frontend.

They are the only commands that need numpy and the float steppers, so
``bflow.cli`` imports this module when one of them runs. ``integrate``
runs every method, classical tableaus included, through one
``steppers.integrate`` call; ``converge`` takes the Lie group methods
only, ``steppers._LIE_METHODS`` and rkmk, and refuses any other name
before it loads the tableaus. A Lie group method on a stock problem
loads the float layer alone: the tableaus load for a classical tableau,
``--tableau`` or an rkmk method, the B-series layer only for an rkmk
method on a tableau file without ``--m``, and the polynomial fields for
``--f``.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import DomainError
from .steppers import (
    _LIE_METHODS,
    _refuse_options,
    LGProblem,
    affine_element,
    convergence_order,
    integrate,
    make_action,
    rigid_body_problem,
    toda_problem,
)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


_NAMED_FIELDS = {
    "linear": (
        ["y1", "-y0", "-y2/2"],
        (1.0, 0.5, 0.25),
    ),
}


def _resolve_field(spec: str):
    """A named field or comma-separated polynomial components; returns
    the compiled callable and a default initial state."""
    if spec in _NAMED_FIELDS:
        texts, y0 = _NAMED_FIELDS[spec]
    else:
        texts = [c.strip() for c in spec.split(",")]
        y0 = tuple(1.0 / (k + 1) for k in range(len(texts)))
    from .integrators import PolyVectorField

    return PolyVectorField.from_strings(texts).as_callable(), y0


def _build_problem(args):
    """Problem, state labels, and invariant hooks for one action."""
    if args.action == "rotation":
        problem = rigid_body_problem()
        if args.f:
            fn, y0 = _resolve_field(args.f)
            if len(y0) != 3:
                raise DomainError("a rotation field needs exactly 3 components")
            problem = LGProblem(problem.action, lambda t, y: fn(y), problem.y0)
    elif args.action == "isospectral":
        if args.f:
            raise DomainError("the isospectral action runs its stock problem")
        problem = toda_problem()
    elif args.action == "translation":
        if not args.f:
            raise DomainError("the translation action needs --f")
        fn, y0 = _resolve_field(args.f)
        action = make_action("translation", len(y0))
        problem = LGProblem(action, lambda t, y: fn(y), y0)
    elif args.action == "affine":
        if args.f:
            raise DomainError("the affine action runs its stock problem")
        V = np.array([[0.0, 1.0], [-1.0, 0.0]])
        b = np.array([1.0, 0.0])
        action = make_action("affine", 2)
        problem = LGProblem(action, lambda t, y: affine_element(V, b), np.array([1.0, 0.0]))
    else:
        raise DomainError(f"unknown action {args.action!r}")
    if args.y0 is not None:
        if problem.y0.ndim != 1:
            raise DomainError("--y0 override applies to vector states only")
        values = args.y0
        if len(values) != len(problem.y0):
            raise DomainError(
                f"--y0 needs {len(problem.y0)} components, got {len(values)}"
            )
        problem = LGProblem(problem.action, problem.f, np.array(values), problem.reference)
    return problem


def _state_columns(y) -> list[str]:
    return [f"y{k}" for k in range(np.asarray(y).size)]


def _invariant_tracker(kind, y0):
    y0 = np.asarray(y0)
    if kind == "norm":
        if y0.ndim != 1:
            raise DomainError("norm drift applies to vector states")
        base = float(np.linalg.norm(y0))
        return "norm_drift", lambda y: abs(float(np.linalg.norm(y)) - base)
    if kind == "spectrum":
        if y0.ndim != 2 or not np.allclose(y0, y0.T):
            raise DomainError("spectrum drift applies to symmetric matrix states")
        base = np.sort(np.linalg.eigvalsh(y0))
        return "eig_drift", lambda y: float(
            np.max(np.abs(np.sort(np.linalg.eigvalsh(y)) - base))
        )
    raise DomainError(f"unknown invariant {kind!r}; choose norm or spectrum")


def _read_tableau(args):
    """The ``--tableau`` file, read only after the method is known to take
    it: a fixed Lie group method refuses the option before the file is
    opened, so the error names the refusal whatever the file holds."""
    if not args.tableau:
        return None
    _refuse_options(args.method, args.tableau, args.m)
    from .tableaus import read_tableau

    return read_tableau(args.tableau)


def integrate_command(args) -> int:
    problem = _build_problem(args)
    # A run that leaves the floats ends in one error line, not numpy warnings.
    with np.errstate(all="ignore"):
        trajectory = integrate(
            args.method, problem, args.h, args.steps, m=args.m, tableau=_read_tableau(args)
        )
    columns = ["step", "t"] + _state_columns(problem.y0)
    tracker = None
    if args.check_invariant:
        name, tracker = _invariant_tracker(args.check_invariant, problem.y0)
        columns.append(name)
    lines = [",".join(columns)]
    for k, y in enumerate(trajectory[1:], start=1):
        row = [str(k), _fmt(k * args.h)]
        row.extend(_fmt(v) for v in np.asarray(y).reshape(-1))
        if tracker is not None:
            row.append(_fmt(tracker(y)))
        lines.append(",".join(row))
    _emit(args, lines)
    return 0


def converge_command(args) -> int:
    problem = _build_problem(args)
    if not (args.method in _LIE_METHODS or args.method.startswith("rkmk")):
        raise DomainError("converge drives the Lie group methods; see integrate")
    h_list = args.h
    tableau = _read_tableau(args)
    with np.errstate(all="ignore"):
        slope, rows = convergence_order(
            args.method, problem, args.t_end, h_list, m=args.m, tableau=tableau
        )
    lines = ["method,h,error,slope_estimate"]
    for h, err, pair in rows:
        tail = "" if pair is None else _fmt(pair)
        lines.append(f"{args.method},{_fmt(h)},{_fmt(err)},{tail}")
    lines.append(f"# least-squares slope: {_fmt(slope)}")
    _emit(args, lines)
    return 0


def _emit(args, lines) -> None:
    text = "\n".join(lines) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
