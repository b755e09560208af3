"""Command-line interface.

Four subcommands:

* ``analyze-spinor``     canonical frame, annihilator, complex structure and
                         Hopf point of a unit spinor
* ``check-admissible``   run both admissibility characterizations on a plane
* ``decompose-torsion``  split a derivative datum into its components
* ``verify-all``         run the self-verification registry

Payloads are JSON objects, read from --file or stdin.  Exit codes: 0 on
success, 1 when verification reports failures, 2 for malformed input
(unparseable JSON, wrong shapes, degenerate bases), 3 when a structural
precondition fails (non-unit spinors, inadmissible planes) or a numerical
routine breaks down (a LinAlgError, reported in one line).  The default
tolerance comes from the SPIN5_EPS environment variable when set.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import clifford as cl
from . import jsonio
from . import quaternionic as qt
from . import su2 as su
from . import torsion as ts
from .errors import (DegenerateSubspace, InputError, NonUnitSpinor,
                     Spin5Error)
from .frames import build_frame
from .numerics import EPS_DEFAULT, require_unit, scale_safe_norm


def _resolve_eps(flag: float | None) -> float:
    """--eps, else SPIN5_EPS, else EPS_DEFAULT; outside [1e-13, 1e-2] a tolerance
    breaks the registry or the analysis, so it is rejected."""
    source, raw = (("--eps", flag) if flag is not None
                   else ("SPIN5_EPS", os.environ.get("SPIN5_EPS", EPS_DEFAULT)))
    try:
        value = float(raw)
    except ValueError as exc:
        raise InputError(f"SPIN5_EPS is not a number: {raw!r}") from exc
    if not 1e-13 <= value <= 1e-2:
        raise InputError(f"{source} must be in [1e-13, 1e-2], got {value!r}")
    return value


def _read_payload(args: argparse.Namespace) -> dict:
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read {args.file}: {exc}") from exc
    else:
        text = sys.stdin.read()
    return jsonio.load_payload(text)


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.json:
        sys.stdout.write(jsonio.dumps(payload))
    else:
        sys.stdout.write(text)


def _fmt(values) -> str:
    return "  ".join(f"{float(v):+.6f}" for v in np.asarray(values).ravel())


def _fmt_spinor(phi: np.ndarray) -> str:
    return "  ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in phi)


def _cmd_analyze(args: argparse.Namespace) -> int:
    payload = _read_payload(args)
    phi = jsonio.parse_spinor(jsonio.get_field(payload, "spinor"))
    norm = scale_safe_norm(phi)   # entries of 1e200 do not overflow
    if args.normalize:
        if norm < np.sqrt(args.eps):
            raise NonUnitSpinor(f"cannot normalize a spinor of norm {norm:.3e}")
        phi = phi / norm
    else:
        try:
            require_unit(norm, args.eps, NonUnitSpinor, "spinor norm")
        except NonUnitSpinor as exc:
            raise NonUnitSpinor(f"{exc}; pass --normalize to rescale") from None

    space = su.space_of_spinor(phi, args.eps)
    phi_tilde = build_frame(phi, args.eps).phi_tilde + 0.0   # prints -0.0 as 0.0
    splitting = su.so5_splitting(space, args.eps)
    j = qt.complex_structure(phi, space, args.eps)
    coords = qt.hopf_coordinates(phi, space)
    point = qt.hopf(*coords, eps=args.eps)

    out = {
        "spinor": jsonio.encode_spinor(phi),
        "y": jsonio.encode_vector(space.y),
        "d_basis": [jsonio.encode_vector(b) for b in space.d_basis],
        "v_basis": [jsonio.encode_spinor(v) for v in space.v_basis],
        "phi_tilde": jsonio.encode_spinor(phi_tilde),
        "su2_basis": [jsonio.encode_two_form(w) for w in splitting.su2_minus],
        "j_matrix": jsonio.encode_real_matrix(j),
        "hopf": [float(p) for p in point],
    }
    lines = [f"spinor      {_fmt_spinor(phi)}",
             f"y           {_fmt(space.y)}"]
    for i, b in enumerate(space.d_basis):
        lines.append(f"d_basis[{i}]  {_fmt(b)}")
    for i, v in enumerate(space.v_basis):
        lines.append(f"v_basis[{i}]  {_fmt_spinor(v)}")
    lines.append(f"phi_tilde   {_fmt_spinor(phi_tilde)}")
    for i, w in enumerate(splitting.su2_minus):
        lines.append(f"su2[{i}]      {_fmt(w)}")
    for i in range(4):
        lines.append(f"j_matrix[{i}] {_fmt(j[i])}")
    lines.append(f"hopf        {_fmt(point)}")
    _emit(args, out, "\n".join(lines) + "\n")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    payload = _read_payload(args)
    basis = jsonio.parse_spinor_list(
        jsonio.get_field(payload, "basis"), 2, "basis")
    result = su.is_admissible(basis, args.eps)
    out = {
        "admissible": bool(result.verdict),
        "spanning_test": bool(result.spanning_test),
        "conjugation_test": bool(result.conjugation_test),
        "max_spanning_residual": float(result.max_spanning_residual),
        "max_conjugation_residual": float(result.max_conjugation_residual),
    }
    text = (f"admissible            {out['admissible']}\n"
            f"spanning test         {out['spanning_test']}"
            f"  (max residual {out['max_spanning_residual']:.3e})\n"
            f"conjugation test      {out['conjugation_test']}"
            f"  (max residual {out['max_conjugation_residual']:.3e})\n")
    _emit(args, out, text)
    return 0


def _parse_rotation(raw: str) -> np.ndarray:
    parts = raw.split(",")
    if len(parts) != 4:
        raise InputError(
            f"--rotate expects four comma-separated numbers, got {raw!r}")
    try:
        a = np.array([float(p) for p in parts])
    except ValueError as exc:
        raise InputError(f"--rotate component is not a number: {raw!r}") from exc
    if not np.isfinite(a).all():
        raise InputError(f"--rotate components must be finite: {raw!r}")
    return a


def _cmd_decompose(args: argparse.Namespace) -> int:
    payload = _read_payload(args)
    phi = jsonio.parse_spinor(jsonio.get_field(payload, "phi"))
    derivatives = jsonio.parse_spinor_list(
        jsonio.get_field(payload, "derivatives"), 5, "derivatives")
    v_basis = jsonio.parse_spinor_list(
        jsonio.get_field(payload, "v_basis"), 2, "v_basis")
    space = su.admissible_space(v_basis, args.eps)
    nabla = ts.NablaDatum(phi=phi, derivatives=derivatives)
    dec = ts.decompose(nabla, space, args.eps)
    om = ts.omega_decompose(nabla, space, args.eps)
    xi = ts.intrinsic_torsion(nabla, space, args.eps)

    out = {
        "phi": jsonio.encode_spinor(dec.phi),
        "s_matrix": jsonio.encode_real_matrix(dec.s_matrix),
        "beta": jsonio.encode_real_matrix(dec.beta),
        "z": [float(v) for v in dec.z],
        "f": [float(v) for v in dec.f],
        "s_d": jsonio.encode_real_matrix(dec.s_d),
        "beta_d": jsonio.encode_real_matrix(dec.beta_d),
        "lambda0": float(dec.lambda0),
        "lambdas": [float(v) for v in dec.lambdas],
        "s0": jsonio.encode_real_matrix(dec.s0),
        "sigma": [jsonio.encode_real_matrix(m) for m in dec.sigma],
        "residual": float(dec.residual),
        "omega": [jsonio.encode_two_form(w) for w in om.omega],
        "omega_zeta": jsonio.encode_two_form(om.omega_zeta),
        "omega_d": [jsonio.encode_two_form(w) for w in om.omega_d],
        "xi": [jsonio.encode_two_form(w) for w in xi.xi],
        "xi_su2_plus": [jsonio.encode_two_form(w) for w in xi.su2_plus_part],
        "xi_r4": [jsonio.encode_two_form(w) for w in xi.r4_part],
    }
    lines = [f"residual    {dec.residual:.3e}",
             f"lambda0     {dec.lambda0:+.6f}",
             f"lambdas     {_fmt(dec.lambdas)}",
             f"z           {_fmt(dec.z)}",
             f"f           {_fmt(dec.f)}"]
    for i in range(4):
        lines.append(f"s_matrix[{i}] {_fmt(dec.s_matrix[i])}")
    for i in range(3):
        lines.append(f"beta[{i}]     {_fmt(dec.beta[i])}")
    lines.append(f"omega_zeta  {_fmt(om.omega_zeta)}")

    if args.rotate is not None:
        a = _parse_rotation(args.rotate)
        rotated = ts.rotate_spinor_datum(a, nabla, space, args.eps)
        dec_a = ts.decompose(rotated, space, args.eps)
        om_a = ts.omega_decompose(rotated, space, args.eps)
        predicted = ts.transform_beta(a, dec.beta, args.eps)
        s_delta = float(np.abs(dec_a.s_matrix - dec.s_matrix).max())
        omega_delta = float(np.abs(om_a.omega - om.omega).max())
        beta_delta = float(np.abs(dec_a.beta - predicted).max())
        out["rotation"] = {
            "quaternion": [float(v) for v in a],
            "s_max_delta": s_delta,
            "omega_max_delta": omega_delta,
            "beta_observed": jsonio.encode_real_matrix(dec_a.beta),
            "beta_predicted": jsonio.encode_real_matrix(predicted),
            "beta_max_delta": beta_delta,
        }
        lines.append(f"rotation    quaternion {_fmt(a)}")
        lines.append(f"            S delta {s_delta:.3e}  omega delta "
                     f"{omega_delta:.3e}  beta delta {beta_delta:.3e}")
    _emit(args, out, "\n".join(lines) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise InputError(f"--samples must be at least 1, got {args.samples}")
    from .verify import run_checks   # the registry loads only for this command
    report = run_checks(eps=args.eps, seed=args.seed, samples=args.samples)
    if args.json:
        sys.stdout.write(jsonio.dumps(report.to_json_dict()))
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.ok() else 1


def _add_common(parser: argparse.ArgumentParser, payload: bool) -> None:
    parser.add_argument("--eps", type=float, default=None,
                        help="numerical tolerance (default: SPIN5_EPS or 1e-9)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
    group.add_argument("--text", action="store_true",
                       help="emit human-readable text (default)")
    if payload:
        parser.add_argument("--file", default=None,
                            help="read the JSON payload from this path "
                                 "instead of stdin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spin5",
        description="verification tools for rank-2 spinor planes in "
                    "dimension 5")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-spinor",
                       help="canonical frame and Hopf data of a unit spinor")
    _add_common(p, payload=True)
    p.add_argument("--normalize", action="store_true",
                   help="rescale a non-unit input spinor instead of failing")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("check-admissible",
                       help="test a spinor plane for admissibility")
    _add_common(p, payload=True)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("decompose-torsion",
                       help="split a derivative datum into components")
    _add_common(p, payload=True)
    p.add_argument("--rotate", default=None, metavar="A0,A1,A2,A3",
                   help="also decompose the datum rotated by this unit "
                        "quaternion and report the deltas")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("verify-all",
                       help="run every registered self-verification check")
    _add_common(p, payload=False)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the check random streams (default 0)")
    p.add_argument("--samples", type=int, default=100,
                   help="sample budget per check, scaled from the "
                        "documented defaults (default 100)")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a word such as "-0.6,0.8,0,0" for an option, which would
    # leave --rotate without its value; pass it as "--rotate=-0.6,0.8,0,0".
    for k in range(len(argv) - 1, 0, -1):
        if argv[k - 1] == "--rotate" and re.match(r"-\.?\d", argv[k]):
            argv[k - 1:k + 1] = [f"--rotate={argv[k]}"]
    args = parser.parse_args(argv)
    try:
        args.eps = _resolve_eps(args.eps)
        return args.fn(args)
    except (InputError, DegenerateSubspace) as exc:
        print(f"spin5: input error: {exc}", file=sys.stderr)
        return 2
    except Spin5Error as exc:
        print(f"spin5: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"spin5: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
