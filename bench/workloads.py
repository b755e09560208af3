"""The four workloads: input generators, operations and their oracles.

A workload builds its inputs from the seed alone: round r of a run draws
from numpy.random.default_rng([seed, tag, r]), so equal seeds give equal
inputs.  Every round is a fixed list of operations.  An operation's run()
calls spin5 and returns what it produced; its check() applies the oracles
and raises oracles.OracleError on a broken law.  spin5 functions are
looked up on the module at call time, so tracer wrappers see every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracles
from oracles import OracleError

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


class OpFailed(Exception):
    """The program refused an operation (an exception or a nonzero exit)."""


# -- generators -----------------------------------------------------------

def haar_spinor(rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return z / np.linalg.norm(z)


def unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def tie_vector(rng: np.random.Generator) -> np.ndarray:
    """(+-e_a +- e_b)/sqrt(2): two coordinates tie for the largest |y_i|."""
    a, b = sorted(rng.choice(5, size=2, replace=False))
    y = np.zeros(5)
    y[a], y[b] = rng.choice([-1.0, 1.0], size=2)
    return y / np.sqrt(2.0)


def spinor_with_reeb(laws: oracles.Laws, y: np.ndarray) -> np.ndarray:
    """A unit spinor in the +i eigenspace of y, so its Reeb vector is y."""
    p = laws.plus_space(y)
    k = int(np.argmax(np.linalg.norm(p, axis=0)))
    phi = p[:, k]
    return phi / np.linalg.norm(phi)


def plane_spanning_set(laws: oracles.Laws, y: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Two random spinors spanning the admissible plane with Reeb vector y.

    The plane is the -i eigenspace of y, the complement of the +i one.
    """
    p_minus = np.eye(4) - laws.plus_space(y)
    z = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    return (p_minus @ z).T


def complement_spinor(laws: oracles.Laws, y: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi = laws.plus_space(y) @ z
    return phi / np.linalg.norm(phi)


def tangent_derivatives(phi: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """Five random derivatives with their radial parts removed."""
    d = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    radial = np.array([np.vdot(phi, row).real for row in d])
    return d - np.outer(radial, phi)


def unit_quaternion(rng: np.random.Generator) -> np.ndarray:
    """Uniform on S^3."""
    return unit_vector(rng, 4)


# -- plane_survey -------------------------------------------------------------

class PlaneSurvey:
    """Fresh spinors through the analyze-spinor chain, no plane used twice.

    A round is ten spinors: seven Haar-random and three structured ones,
    namely a standard basis spinor and two spinors whose Reeb vector sits
    on, or 1e-12 off, a distribution_basis argmin tie.
    """

    TAG = 1
    KINDS = ("haar",) * 7 + ("basis", "tie", "near_tie")

    def __init__(self, spin5, laws: oracles.Laws, seed: int):
        self.sp = spin5
        self.laws = laws
        self.seed = seed

    def warmup(self) -> Op:
        return self._op("haar", np.random.default_rng([self.seed, 0]), 0)

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, self.TAG, r])
        return [self._op(kind, rng, r) for kind in self.KINDS]

    def _spinor(self, kind: str, rng, r: int) -> np.ndarray:
        if kind == "haar":
            return haar_spinor(rng)
        if kind == "basis":
            phi = np.zeros(4, dtype=complex)
            phi[r % 4] = 1.0
            return phi
        y = tie_vector(rng)
        if kind == "near_tie":
            y = y + 1e-12 * unit_vector(rng, 5)
            y = y / np.linalg.norm(y)
        return spinor_with_reeb(self.laws, y)

    def _op(self, kind: str, rng, r: int) -> Op:
        sp, laws = self.sp, self.laws
        phi = self._spinor(kind, rng, r)
        random_plane = np.array([haar_spinor(rng), haar_spinor(rng)])
        word = [unit_vector(rng, 5) for _ in range(4)]
        derivs = tangent_derivatives(phi, rng)

        def run():
            space = sp.space_of_spinor(phi)
            split = sp.so5_splitting(space)
            j = sp.complex_structure(phi, space)
            point = sp.hopf(*sp.hopf_coordinates(phi, space))
            random_verdict = sp.is_admissible(random_plane)
            moved = sp.act_on_space(sp.spin_element(word), space)
            moved_verdict = sp.is_admissible(moved.v_basis)
            dec = sp.decompose(sp.NablaDatum(phi=phi, derivatives=derivs),
                               space)
            return space, split, j, point, random_verdict, moved, \
                moved_verdict, dec

        def check(out):
            space, split, j, point, random_verdict, moved, moved_verdict, \
                dec = out
            laws.check_frame(phi, space.y, space.d_basis, j, point,
                             v_basis=space.v_basis, su2_minus=split.su2_minus)
            laws.check_complement(space.vperp_basis, space.y)
            for w in split.su2_plus:
                for v in space.v_basis:
                    oracles.close(laws.form(w) @ v, 0.0, oracles.TOL,
                                  "su(2)+ annihilates the plane")
            if random_verdict.verdict:
                raise OracleError("a random plane was judged admissible")
            if not moved_verdict.verdict:
                raise OracleError("a transported plane was judged "
                                  "inadmissible")
            g = np.eye(4, dtype=complex)
            for w in word:
                g = g @ laws.vec(w)
            laws.check_same_plane(moved.v_basis, space.v_basis @ g.T,
                                  "act_on_space returns g.V")
            laws.check_datum(phi, derivs, dec.s_matrix, dec.beta,
                             space.d_basis, space.y, dec.z, dec.f)
            js = laws.triple(space.vperp_basis[0], space.vperp_basis[1],
                             space.d_basis)
            laws.check_split(dec.s_d, dec.lambda0, dec.lambdas, dec.s0,
                             dec.sigma, js)

        return Op(kind, run, check)


# -- torsion_field ------------------------------------------------------------

class TorsionField:
    """Many derivative data on a few planes built once in setup.

    PLANES planes carry DATA data each; op k uses plane k % PLANES, so
    consecutive ops move between planes.  Every ROTATE_EVERY-th op also
    rotates the datum by a unit quaternion uniform on S^3 and decomposes
    the rotated datum again.
    """

    TAG = 2
    PLANES = 4
    DATA = 32
    ROUND = 8
    ROTATE_EVERY = 4

    def __init__(self, spin5, laws: oracles.Laws, seed: int):
        self.sp = spin5
        self.laws = laws
        self.seed = seed
        rng = np.random.default_rng([seed, self.TAG])
        self.planes = []
        for _ in range(self.PLANES):
            y = unit_vector(rng, 5)
            space = spin5.admissible_space(plane_spanning_set(laws, y, rng))
            oracles.close(space.y, y, oracles.TOL,
                          "plane built from y has Reeb vector y")
            laws.check_complement(space.vperp_basis, space.y)
            js = laws.triple(space.vperp_basis[0], space.vperp_basis[1],
                             space.d_basis)
            data = []
            for _ in range(self.DATA):
                phi = complement_spinor(laws, y, rng)
                data.append(spin5.NablaDatum(
                    phi=phi, derivatives=tangent_derivatives(phi, rng)))
            self.planes.append((space, js, data))

    def warmup(self) -> Op:
        rng = np.random.default_rng([self.seed, 0])
        return self._op(0, unit_quaternion(rng))

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, self.TAG, r])
        ops = []
        for k in range(self.ROUND):
            rotate = k % self.ROTATE_EVERY == self.ROTATE_EVERY - 1
            a = unit_quaternion(rng) if rotate else None
            ops.append(self._op(r * self.ROUND + k, a))
        return ops

    def _op(self, k: int, a) -> Op:
        sp, laws = self.sp, self.laws
        space, js, data = self.planes[k % self.PLANES]
        nabla = data[(k // self.PLANES) % self.DATA]

        def run():
            dec = sp.decompose(nabla, space)
            om = sp.omega_decompose(nabla, space)
            xi = sp.intrinsic_torsion(nabla, space)
            if a is None:
                return dec, om, xi, None
            rotated = sp.rotate_spinor_datum(a, nabla, space)
            return dec, om, xi, (rotated, sp.decompose(rotated, space),
                                 sp.omega_decompose(rotated, space))

        def check(out):
            dec, om, xi, rot = out
            self._check_one(nabla, dec, om, space, js)
            laws.check_intrinsic(nabla.phi, nabla.derivatives, xi.xi)
            if rot is not None:
                rotated, dec_r, om_r = rot
                self._check_one(rotated, dec_r, om_r, space, js)
                laws.check_rotation(a, dec.beta, dec_r.beta, dec.s_matrix,
                                    dec_r.s_matrix, om.omega, om_r.omega)

        return Op("rotate" if a is not None else "plain", run, check)

    def _check_one(self, nabla, dec, om, space, js) -> None:
        laws = self.laws
        laws.check_datum(nabla.phi, nabla.derivatives, dec.s_matrix,
                         dec.beta, space.d_basis, space.y, dec.z, dec.f)
        laws.check_split(dec.s_d, dec.lambda0, dec.lambdas, dec.s0,
                         dec.sigma, js)
        laws.check_omega(nabla.phi, dec.beta, om.omega, om.omega_zeta,
                         space.y)


# -- cli_oneshot --------------------------------------------------------------

def _spinor_json(phi) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(phi)]


def _quaternion_arg(a) -> str:
    return ",".join(repr(float(x)) for x in a)


class CliOneshot:
    """Sequential cold spin5 processes over a fixed mix of requests.

    A round is twelve requests: four analyze-spinor (text and --json, two
    of them --normalize on spinors scaled by a factor in [0.5, 2]), two
    check-admissible (one admissible plane, one random plane) and six
    decompose-torsion --json, four of them with --rotate as two argv
    words.  Two of those rotations draw the quaternion uniformly on S^3
    and flip its sign so that A0 >= 0 (q and -q give the same rotation);
    the other two use fixed quaternions with A0 < 0 on a fixed payload,
    the same for every seed.  Payloads alternate between --file and stdin.
    """

    TAG = 3
    FIXED_NEGATIVE = ((-0.6, 0.8, 0.0, 0.0), (-0.5, 0.5, 0.5, 0.5))

    def __init__(self, laws: oracles.Laws, seed: int, work_dir: Path):
        self.laws = laws
        self.seed = seed
        self.work_dir = work_dir
        self.shim = str(BENCH_DIR / "cli_shim.py")
        self.tracer = None
        fixed = np.random.default_rng(20210804)
        self.fixed_datum = self._datum(fixed)

    # Requests -------------------------------------------------------------

    def _datum(self, rng) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
        y = unit_vector(rng, 5)
        phi = complement_spinor(self.laws, y, rng)
        derivs = tangent_derivatives(phi, rng)
        payload = {"phi": _spinor_json(phi),
                   "derivatives": [_spinor_json(d) for d in derivs],
                   "v_basis": [_spinor_json(v) for v in
                               plane_spanning_set(self.laws, y, rng)]}
        return payload, y, phi, derivs

    def warmup(self) -> Op:
        phi = haar_spinor(np.random.default_rng([self.seed, 0]))
        return self._analyze(phi, 1.0, json_out=True, via_file=False,
                             slot=99)

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, self.TAG, r])
        ops = [
            self._analyze(haar_spinor(rng), 1.0, False, True, 0),
            self._analyze(haar_spinor(rng), 1.0, True, False, 1),
            self._analyze(haar_spinor(rng), rng.uniform(0.5, 2.0), False,
                          False, 2),
            self._analyze(haar_spinor(rng), rng.uniform(0.5, 2.0), True,
                          True, 3),
        ]
        y = unit_vector(rng, 5)
        ops.append(self._check(plane_spanning_set(self.laws, y, rng), True,
                               json_out=True, via_file=True, slot=4))
        ops.append(self._check(np.array([haar_spinor(rng), haar_spinor(rng)]),
                               False, json_out=False, via_file=False, slot=5))
        for slot, via_file in ((6, False), (7, True)):
            ops.append(self._decompose(self._datum(rng), None, via_file, slot))
        for slot, via_file in ((8, False), (9, True)):
            a = unit_quaternion(rng)
            a = a if a[0] >= 0 else -a
            ops.append(self._decompose(self._datum(rng), a, via_file, slot))
        for slot, (a, via_file) in zip((10, 11), zip(self.FIXED_NEGATIVE,
                                                     (False, True))):
            ops.append(self._decompose(self.fixed_datum, np.array(a),
                                       via_file, slot))
        return ops

    def _request(self, kind: str, args: list[str], payload: dict,
                 via_file: bool, slot: int, check) -> Op:
        text = json.dumps(payload)
        stdin = None
        if via_file:
            path = self.work_dir / f"payload-{slot}.json"
            path.write_text(text, encoding="utf-8")
            args = args + ["--file", str(path)]
        else:
            stdin = text.encode()

        def run():
            return self._spawn(args, stdin)

        return Op(kind, run, check)

    def _spawn(self, args: list[str], stdin: bytes | None) -> str:
        env = None
        trace_file = None
        if self.tracer is not None:
            trace_file = self.work_dir / "request-spans.json"
            env = dict(os.environ, BENCH_TRACE_OUT=str(trace_file))
        proc = subprocess.run([sys.executable, self.shim, *args],
                              input=stdin, capture_output=True, env=env,
                              timeout=120)
        if trace_file is not None:
            self.tracer.merge(json.loads(trace_file.read_text()),
                              self.tracer.op)
            trace_file.unlink()
        if proc.returncode != 0:
            raise OpFailed(f"spin5 {' '.join(args[:1])} exited "
                           f"{proc.returncode}: "
                           f"{proc.stderr.decode().strip()[-200:]}")
        return proc.stdout.decode()

    def _analyze(self, phi, scale: float, json_out: bool, via_file: bool,
                 slot: int) -> Op:
        laws = self.laws
        args = ["analyze-spinor"]
        args += ["--json"] if json_out else []
        args += ["--normalize"] if scale != 1.0 else []

        def check(stdout: str):
            if not json_out:
                line = next(ln for ln in stdout.splitlines()
                            if ln.startswith("y "))
                y = np.array([float(v) for v in line.split()[1:]])
                laws.check_reeb(phi, y, tol=oracles.TEXT_TOL)
                return
            out = json.loads(stdout)
            got = np.array([complex(*z) for z in out["spinor"]])
            oracles.close(got, phi, oracles.TOL, "echoed unit spinor")
            laws.check_frame(phi, np.array(out["y"]), np.array(out["d_basis"]),
                             np.array(out["j_matrix"]), np.array(out["hopf"]),
                             v_basis=[[complex(*z) for z in v]
                                      for v in out["v_basis"]],
                             su2_minus=np.array(out["su2_basis"]))

        return self._request("analyze", args,
                             {"spinor": _spinor_json(phi * scale)},
                             via_file, slot, check)

    def _check(self, basis, admissible: bool, json_out: bool,
               via_file: bool, slot: int) -> Op:
        args = ["check-admissible"] + (["--json"] if json_out else [])

        def check(stdout: str):
            if json_out:
                verdict = json.loads(stdout)["admissible"]
            else:
                line = next(ln for ln in stdout.splitlines()
                            if ln.startswith("admissible "))
                verdict = line.split()[1] == "True"
            if verdict != admissible:
                raise OracleError(f"plane built {'' if admissible else 'in'}"
                                  f"admissible was judged {verdict}")

        return self._request("check", args,
                             {"basis": [_spinor_json(v) for v in basis]},
                             via_file, slot, check)

    def _decompose(self, datum, a, via_file: bool, slot: int) -> Op:
        laws = self.laws
        payload, y, phi, derivs = datum
        args = ["decompose-torsion", "--json"]
        if a is not None:
            args += ["--rotate", _quaternion_arg(a)]

        def check(stdout: str):
            out = json.loads(stdout)
            got = np.array([complex(*z) for z in out["phi"]])
            oracles.close(got, phi, oracles.TOL, "echoed base spinor")
            s = np.array(out["s_matrix"])
            beta = np.array(out["beta"])
            laws.check_reeb(phi, y)
            d = laws.check_datum_frame_free(phi, derivs, s, beta, y)
            oracles.close(out["z"], s @ y, oracles.TOL, "z = S(y)")
            oracles.close(out["f"], beta @ y, oracles.TOL, "f = beta(y)")
            oracles.close(out["s_d"], s @ d.T, oracles.TOL, "S_D = S on D")
            partner = complement_spinor(laws, y, np.random.default_rng(0))
            partner = partner - np.vdot(phi, partner) * phi
            js = laws.triple(phi, partner / np.linalg.norm(partner), d)
            laws.check_split_frame_free(out["s_d"], out["lambda0"],
                                        out["lambdas"], out["s0"],
                                        out["sigma"], js)
            laws.check_intrinsic(phi, derivs, out["xi"])
            laws.check_omega(phi, beta, out["omega"], out["omega_zeta"], y)
            if a is not None:
                rot = out["rotation"]
                laws.check_rotation(a, beta, rot["beta_observed"])
                laws.check_rotation(a, beta, rot["beta_predicted"])
                for key in ("s_max_delta", "omega_max_delta",
                            "beta_max_delta"):
                    if not rot[key] <= oracles.TOL:
                        raise OracleError(f"rotation deltas: {key} "
                                          f"{rot[key]:.3e}")

        return self._request("rotate" if a is not None else "decompose",
                             args, payload, via_file, slot, check)


# -- verify_all ---------------------------------------------------------------

class VerifyAll:
    """The 43-check registry at samples=100 and seed 0; seed-independent.

    The warm-up runs the registry at samples=1, which reaches every check
    at a hundredth of the cost of a full run.  One run takes seconds, so
    the host reference (set by the worker) is also sampled between checks:
    run_checks builds each check's CheckContext before it starts that
    check's clock, and the op wraps that constructor.
    """

    def __init__(self, spin5):
        self.sp = spin5
        self.check_ms: dict[str, list[float]] = {}
        self.host = None

    def warmup(self) -> Op:
        return self._op(samples=1, record=False)

    def round(self, r: int) -> list[Op]:
        return [self._op(samples=100, record=True)]

    def _op(self, samples: int, record: bool) -> Op:
        def run():
            verify = self.sp.verify
            context = verify.CheckContext

            def sampled_context(**kwargs):
                self.host.maybe_sample()
                return context(**kwargs)

            verify.CheckContext = sampled_context
            try:
                return self.sp.run_checks(seed=0, samples=samples)
            finally:
                verify.CheckContext = context

        def check(report):
            oracles.check_registry((c.check_id, c.status)
                                   for c in report.results)
            if record:
                for c in report.results:
                    self.check_ms.setdefault(c.check_id, []).append(
                        1000.0 * c.elapsed)

        return Op("registry", run, check)


def make(name: str, spin5, laws: oracles.Laws, seed: int, work_dir: Path):
    if name == "plane_survey":
        return PlaneSurvey(spin5, laws, seed)
    if name == "torsion_field":
        return TorsionField(spin5, laws, seed)
    if name == "cli_oneshot":
        return CliOneshot(laws, seed, work_dir)
    if name == "verify_all":
        return VerifyAll(spin5)
    raise ValueError(f"unknown workload {name!r}")

