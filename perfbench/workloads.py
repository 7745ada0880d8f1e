"""Inputs, operations and output checks of the three benchmark workloads.

Every workload is a class with the same shape:

* ``__init__(seed, out_dir)`` draws the inputs from the seed and builds the
  frame setups (part of set-up time);
* ``warm_up_calls()`` lists cheap calls through the same code paths;
* ``round()`` lists the operations of one round; an operation is a list of
  steps, each a callable that returns an output, and the host-speed
  calibration runs between steps; every run attempts whole rounds;
* ``KERNEL`` names the host-speed kernel in ``worker.py`` that tracks the
  workload's operations best;
* ``check(op, outputs)`` returns a list of failure messages, computed
  outside the timed region from quantities made apart from qrf_lab or from
  properties the results must have.

The checks are plain functions of parsed outputs, so ``selftest.py`` can
feed them corrupted outputs and show that each one fails.
"""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os

import numpy as np

from qrf_lab import cli
from qrf_lab.dynamics import split_hamiltonian
from qrf_lab.frames import FrameSetup
from qrf_lab.groups import FiniteAbelianGroup
from qrf_lab.subalgebras import BilocalUnitary, intersect_projectors, invariant_projector
from qrf_lab.thermo import Prescription, balance_verifiers

TWO_PI = 2.0 * math.pi
CHECK_TOL = 1e-12


def _rng(seed, tag):
    return np.random.default_rng([int(seed), tag])


# ----------------------------------------------------------------- catalog

# name -> time grid passed on the command line (None: a static scenario
# whose row count is fixed by the scenario itself) and its expected rows.
CATALOG = {
    "three-qubit-subalgebras": (None, 4),
    "w-state": (None, 1),
    "gb-states": (None, 1),
    "ghz": (None, 1),
    "zz-oscillation": ({"start": 0.0, "stop": TWO_PI, "points": 61}, 61),
    "effectively-isolated": ({"start": 0.0, "stop": TWO_PI, "points": 50}, 50),
    "relative-equilibrium": ({"start": 0.0, "stop": TWO_PI, "points": 50}, 50),
    "negative-temperature": ({"start": 0.0, "stop": 1.0, "points": 5}, 5),
    "isolated-vs-closed": ({"start": 0.0, "stop": TWO_PI, "points": 50}, 50),
    "zero-to-nonzero-entropy": ({"start": 0.0, "stop": TWO_PI, "points": 50}, 50),
    "entropy-balance-oscillation": ({"start": 0.0, "stop": TWO_PI, "points": 41}, 41),
}
GHZ_VARIANTS = ("separable", "global", "mixed-w")
FORMATS = ("csv", "json")
# A round holds every combination of output format and ghz variant once.
CATALOG_PASSES = len(FORMATS) * len(GHZ_VARIANTS)


def _unit_amplitudes(rng, n, complex_=False):
    v = rng.uniform(0.2, 1.0, size=n)
    if complex_:
        v = v * np.exp(1j * rng.uniform(0.0, TWO_PI, size=n))
    v = v / np.linalg.norm(v)
    if complex_:
        return [[float(z.real), float(z.imag)] for z in v]
    return [float(x) for x in v]


def catalog_params(rng, name, pass_index):
    """Parameters of one scenario, inside the ranges where the checks' closed forms hold."""
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    if name == "three-qubit-subalgebras":
        return {"coefficients": [u(0.5, 1.5) for _ in range(3)],
                "scan_coefficients": [u(0.5, 1.5) for _ in range(3)]}
    if name == "w-state":
        return {"amplitudes": _unit_amplitudes(rng, 2)}
    if name == "gb-states":
        return {"shift": [int(rng.integers(3))], "character": [int(rng.integers(3))],
                "frame_amplitudes": _unit_amplitudes(rng, 3, complex_=True)}
    if name == "ghz":
        return {"variant": GHZ_VARIANTS[pass_index % len(GHZ_VARIANTS)],
                "frame_amplitudes": _unit_amplitudes(rng, 2, complex_=True),
                "p_w": u(0.1, 0.9)}
    if name == "zz-oscillation":
        return {"field_b": u(0.5, 1.5), "coupling_j": u(0.5, 1.5)}
    if name == "effectively-isolated":
        return {"field_b": u(0.5, 1.5), "coupling_j": u(0.2, 0.8),
                "amplitudes": _unit_amplitudes(rng, 2)}
    if name == "relative-equilibrium":
        return {"a": u(0.5, 1.5), "b": u(0.5, 1.5), "beta": u(0.5, 2.0)}
    if name == "negative-temperature":
        return {"mu": u(1.5, 3.0), "nu": u(0.5, 1.5), "beta": u(0.5, 2.0)}
    if name == "zero-to-nonzero-entropy":
        return {"beta": u(0.5, 2.0)}
    return {}


class CatalogOp:
    def __init__(self, name, params, fmt, path, points=None):
        self.name = name
        self.params = params
        self.fmt = fmt
        self.path = path
        grid, self.expected_rows = CATALOG[name]
        self.argv = ["run", name]
        for key, value in params.items():
            self.argv += ["--set", f"params.{key}={json.dumps(value)}"]
        if grid is not None:
            if points is not None:
                grid = dict(grid, points=points)
                self.expected_rows = points
            self.argv += ["--set", f"time_grid={json.dumps(grid)}"]
        self.argv += ["--format", fmt, "--out", path]
        self.stderr = None

    def __call__(self):
        self.stderr = io.StringIO()
        with contextlib.redirect_stderr(self.stderr):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"{self.name}: exit code {code}: {self.stderr.getvalue().strip()}")
        return code


class Catalog:
    """All 11 scenarios through ``qrf_lab.cli.main``, one scenario per operation."""

    KERNEL = "small"

    def __init__(self, seed, out_dir):
        rng = _rng(seed, 1)
        self.ops = []
        for p in range(CATALOG_PASSES):
            fmt = FORMATS[p % len(FORMATS)]
            for name in CATALOG:
                path = os.path.join(out_dir, f"catalog-{name}.{fmt}")
                self.ops.append(CatalogOp(name, catalog_params(rng, name, p), fmt, path))
        # Warm-up runs every scenario in both formats on two grid points.
        self.warm = [CatalogOp(name, catalog_params(rng, name, p), fmt,
                               os.path.join(out_dir, f"warm-up.{fmt}"), points=2)
                     for p, fmt in enumerate(FORMATS) for name in CATALOG]

    def warm_up_calls(self):
        return self.warm

    def round(self):
        return [[op] for op in self.ops]

    def grid_points(self, op):
        return op[0].expected_rows

    def check(self, op, outputs):
        op = op[0]
        with open(op.path, "r", encoding="utf-8") as fh:
            text = fh.read()
        rows = parse_csv(text) if op.fmt == "csv" else parse_json(text)
        return check_catalog_rows(op.name, op.params, op.fmt, rows, op.expected_rows)


def _cell(text):
    return None if text == "" else float(text)


def parse_csv(text):
    reader = csv.DictReader(io.StringIO(text))
    return [{k: _cell(v) for k, v in row.items()} for row in reader]


def parse_json(text):
    rows = json.loads(text)["rows"]
    for row in rows:
        for key, value in row.items():
            if isinstance(value, dict) and set(value) == {"re", "im"}:
                row[key] = np.asarray(value["re"]) + 1j * np.asarray(value["im"])
            elif isinstance(value, bool):
                row[key] = float(value)
    return rows


def binary_entropy(q):
    return -sum(x * math.log(x) for x in (q, 1.0 - q) if x > 0.0)


def thermal_population(beta):
    """Population of |0> in the Gibbs state of Z at inverse temperature beta."""
    return math.exp(-beta) / (math.exp(-beta) + math.exp(beta))


def _close(a, b, tol=CHECK_TOL):
    return a is not None and b is not None and abs(a - b) <= tol * max(1.0, abs(b))


def check_catalog_rows(name, params, fmt, rows, expected_rows):
    """Failure messages for one scenario's rows; empty when all checks pass."""
    bad = []
    if len(rows) != expected_rows:
        return [f"{name}: {len(rows)} rows, expected {expected_rows}"]

    if rows[0].get("E_s_i") is not None:
        totals = {}
        for side in ("i", "j"):
            totals[side] = [r[f"E_s_{side}"] + r[f"E_frame_{side}"] + r[f"E_int_{side}"]
                            for r in rows]
        ref = totals["i"][0]
        for side, values in totals.items():
            worst = max(abs(v - ref) for v in values)
            if worst > CHECK_TOL * max(1.0, abs(ref)):
                bad.append(f"{name}: E_s+E_frame+E_int in perspective {side} "
                           f"moves by {worst:.3e} from {ref!r}")

    if name == "relative-equilibrium":
        a, p = params["a"], thermal_population(params["beta"])
        for r in rows:
            c2 = math.cos(a * r["t"]) ** 2
            expect = binary_entropy(c2 * p + (1.0 - c2) * (1.0 - p))
            if not _close(r["SvN_s_j"], expect):
                bad.append(f"{name}: SvN_s_j {r['SvN_s_j']!r} at t={r['t']} is not {expect!r}")
                break
        if max(abs(r["SvN_s_i"] - rows[0]["SvN_s_i"]) for r in rows) > CHECK_TOL:
            bad.append(f"{name}: SvN_s_i is not constant")

    elif name == "zero-to-nonzero-entropy":
        tb2 = math.tanh(params["beta"]) ** 2
        for r in rows:
            t = r["t"]
            purity = 0.5 * (1.0 + math.cos(2 * t) ** 2 + tb2 * math.sin(2 * t) ** 2)
            lam = 0.5 * (1.0 + math.sqrt(max(2.0 * purity - 1.0, 0.0)))
            if fmt == "json" and not _close(r["purity_s_j"], purity):
                bad.append(f"{name}: purity_s_j {r['purity_s_j']!r} at t={t} is not {purity!r}")
                break
            # The entropy is steep near a pure state, so it is compared
            # with a tolerance scaled by that steepness.
            tol = CHECK_TOL * max(1.0, abs(math.log(max(1.0 - lam, 1e-300))))
            if not _close(r["SvN_s_j"], binary_entropy(lam), tol):
                bad.append(f"{name}: SvN_s_j {r['SvN_s_j']!r} at t={t} "
                           f"disagrees with the purity formula")
                break
            if r["sigma_i"] is None or abs(r["sigma_i"]) > CHECK_TOL:
                bad.append(f"{name}: sigma_i {r['sigma_i']!r} at t={t} is not 0")
                break

    elif name == "negative-temperature":
        beta = params["beta"]
        p_flip = thermal_population(-beta)
        gibbs = np.diag([p_flip, 1.0 - p_flip])
        for r in rows:
            if fmt == "json":
                dev = float(np.abs(np.asarray(r["rho_S_R2"]) - gibbs).max())
                if dev > CHECK_TOL:
                    bad.append(f"{name}: rho_S_R2 at t={r['t']} is {dev:.3e} from the "
                               f"Gibbs state of mu Z at -beta/mu")
                    break
            if not _close(r["SvN_s_j"], binary_entropy(p_flip)):
                bad.append(f"{name}: SvN_s_j {r['SvN_s_j']!r} at t={r['t']} is not "
                           f"the Gibbs entropy")
                break

    elif name == "isolated-vs-closed":
        rates = ("qdot_s_i", "wdot_s_i", "estar_s_i", "qdot_s_j", "wdot_s_j", "estar_s_j")
        worst = max(abs(r[k]) for r in rows for k in rates)
        if worst > CHECK_TOL:
            bad.append(f"{name}: a rate reaches {worst:.3e}, expected 0")
        if max(abs(r["SvN_s_i"]) for r in rows) > CHECK_TOL:
            bad.append(f"{name}: SvN_s_i is not 0")
        if max(abs(r["SvN_s_j"] - math.log(2.0)) for r in rows) > CHECK_TOL:
            bad.append(f"{name}: SvN_s_j is not ln 2")

    elif name == "effectively-isolated":
        worst = max(abs(r["SvN_s_i"] - r["SvN_s_j"]) for r in rows)
        if worst > CHECK_TOL:
            bad.append(f"{name}: SvN_s_i and SvN_s_j differ by {worst:.3e}")
    return bad


# -------------------------------------------------------- subalgebra ladder

LADDER = (
    ((2,), "regular"),
    ((3,), "regular"),
    ((4,), "regular"),
    ((2, 2), "regular"),
    ((2,), {"tensor_power": 3}),
    ((3,), {"tensor_power": 2}),
)
WIDE = (
    ((3,), "regular"),
    ((2, 2), "regular"),
    ((2,), {"tensor_power": 3}),
    ((3,), {"tensor_power": 2}),
    ((4,), {"tensor_power": 2}),
)


def group_elements(moduli):
    return list(itertools.product(*(range(n) for n in moduli)))


def regular_matrix(moduli, g):
    """Permutation |h> -> |g + h>, built without qrf_lab."""
    elements = group_elements(moduli)
    index = {h: k for k, h in enumerate(elements)}
    mat = np.zeros((len(elements), len(elements)))
    for k, h in enumerate(elements):
        mat[index[tuple((a + b) % n for a, b, n in zip(g, h, moduli))], k] = 1.0
    return mat


def rep_matrix(moduli, rep, g):
    reg = regular_matrix(moduli, g)
    power = 1 if rep == "regular" else rep["tensor_power"]
    out = np.eye(1)
    for _ in range(power):
        out = np.kron(out, reg)
    return out


def perspective_change(moduli, rep, g_i, g_j):
    """sum_g |g_i g><g_j g^-1| (x) U_S(g), built without qrf_lab."""
    elements = group_elements(moduli)
    index = {h: k for k, h in enumerate(elements)}
    d_f = len(elements)
    total = None
    for g in elements:
        row = index[tuple((a + b) % n for a, b, n in zip(g_i, g, moduli))]
        col = index[tuple((a - b) % n for a, b, n in zip(g_j, g, moduli))]
        frame = np.zeros((d_f, d_f))
        frame[row, col] = 1.0
        term = np.kron(frame, rep_matrix(moduli, rep, g))
        total = term if total is None else total + term
    return total


def commutant_dimension(w, tol=1e-6):
    """Sum of squared eigenvalue multiplicities of a unitary w."""
    vals = list(np.linalg.eigvals(w))
    total = 0
    while vals:
        ref = vals[0]
        cluster = [v for v in vals if abs(v - ref) <= tol]
        vals = [v for v in vals if abs(v - ref) > tol]
        total += len(cluster) ** 2
    return total


class Rung:
    """One setup with the labels X = 1 and X = 1 (x) U_S(g1), g1 the first non-identity element.

    The labels are fixed because the Schur path's cost follows the
    fixed-space dimensions they select (the d_p = 27 rung took 3.1 s to
    5.6 s over random labels); the seed draws the probe operators of the
    checks.
    """

    def __init__(self, moduli, rep, rng):
        self.moduli, self.rep = moduli, rep
        self.group = FiniteAbelianGroup(moduli)
        self.setup = FrameSetup.from_rep_config(self.group, rep)
        d_f, d_s = self.setup.d_frame, self.setup.d_s
        g1 = group_elements(moduli)[1]
        self.labels = (BilocalUnitary(np.eye(d_f), np.eye(d_s)),
                       BilocalUnitary(np.eye(d_f), self.setup.u_s(g1)))
        u = perspective_change(moduli, rep, self.group.identity, self.group.identity)
        x2 = np.kron(np.eye(d_f), rep_matrix(moduli, rep, g1))
        self.w = (u, x2.conj().T @ u)
        self.expected_dims = tuple(commutant_dimension(w) for w in self.w)
        d = self.setup.d_perspective
        self.probe = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    @property
    def label(self):
        rep = "regular" if self.rep == "regular" else f"tp{self.rep['tensor_power']}"
        return "Z" + "xZ".join(map(str, self.moduli)) + f"-{rep}"

    def steps(self):
        """Both projectors, then their intersection, as three timed steps."""
        e = self.group.identity
        made = []

        def project(label):
            made.append(invariant_projector(self.setup, label, e, e))
            return made[-1]

        return [lambda: project(self.labels[0]), lambda: project(self.labels[1]),
                lambda: intersect_projectors(*made)]

    def run(self):
        return [step() for step in self.steps()]


class SubalgebraLadder:
    """Projectors for two bilocal labels and their intersection, d_p = 4 .. 27.

    One operation is one sweep of the whole ladder, so that every operation
    does the same work; the d_p = 27 rung dominates its cost.  Each
    projector and each intersection is one step, so the host-speed kernel
    runs about once a second during the d_p = 27 rung.
    """

    KERNEL = "schur"

    def __init__(self, seed, out_dir):
        rng = _rng(seed, 2)
        self.rungs = [Rung(moduli, rep, rng) for moduli, rep in LADDER]

    def warm_up_calls(self):
        return [rung.run for rung in self.rungs[:2]]

    def round(self):
        return [[step for rung in self.rungs for step in rung.steps()]]

    def grid_points(self, op):
        return 0

    def check(self, op, outputs):
        bad = []
        for k, rung in enumerate(self.rungs):
            projectors = outputs[3 * k:3 * k + 3]
            bad += check_rung(rung.label, rung.w, rung.expected_dims, rung.probe, projectors)
        return bad


def check_rung(label, ws, expected_dims, probe, projectors):
    """Dimensions against sum m_k^2, commutation with W, and the intersection's fixed points."""
    bad = []
    first, second, both = projectors
    scale = np.linalg.norm(probe)
    for k, (proj, w, dim) in enumerate(zip((first, second), ws, expected_dims)):
        if proj.dimension != dim:
            bad.append(f"{label}: projector {k} has dimension {proj.dimension}, "
                       f"sum of squared multiplicities is {dim}")
        f = proj.apply(probe)
        defect = np.linalg.norm(f @ w - w @ f)
        if defect > 1e-10 * scale:
            bad.append(f"{label}: projected operator {k} misses commuting with W by {defect:.3e}")
    g = both.apply(probe)
    for k, proj in enumerate((first, second)):
        defect = np.linalg.norm(proj.apply(g) - g)
        if defect > 1e-10 * scale:
            bad.append(f"{label}: intersection output moves under map {k} by {defect:.3e}")
    eye = np.eye(probe.shape[0])
    if np.linalg.norm(both.apply(eye) - eye) > 1e-10 * np.linalg.norm(eye):
        bad.append(f"{label}: the identity is not fixed by the intersection")
    return bad


# ------------------------------------------------------------- wide frames

def average_over_powers(op, w):
    """(1/n) sum_k W^k op W^-k over the cyclic group generated by W."""
    d = w.shape[0]
    acc = np.zeros((d, d), dtype=complex)
    power = np.eye(d, dtype=complex)
    for n in range(1, 10_000):
        acc += power @ op @ power.conj().T
        power = w @ power
        if np.abs(power - np.eye(d)).max() < 1e-12:
            return acc / n
    raise ValueError("W has no finite order below 10000")


class WideCase:
    def __init__(self, moduli, rep, rng):
        self.group = FiniteAbelianGroup(moduli)
        self.setup = FrameSetup.from_rep_config(self.group, rep)
        elements = group_elements(moduli)
        pick = lambda: elements[int(rng.integers(len(elements)))]  # noqa: E731
        self.g_i, self.g_j = pick(), pick()
        a, b = pick(), pick()
        self.x = BilocalUnitary(self.setup.u_frame(a), self.setup.u_s(b))
        d, d_f, d_s = self.setup.d_perspective, self.setup.d_frame, self.setup.d_s
        u = perspective_change(moduli, rep, self.g_i, self.g_j)
        w = np.kron(regular_matrix(moduli, a), rep_matrix(moduli, rep, b)).conj().T @ u
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = average_over_powers(g + g.conj().T, w)
        h = (h + h.conj().T) / 2
        h /= np.linalg.norm(h, 2)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = average_over_powers(g @ g.conj().T, w)
        rho = (rho + rho.conj().T) / 2
        self.rho0 = rho / np.trace(rho).real
        self.split = split_hamiltonian(h, d_f, d_s)
        self.prescription = Prescription.split_alpha(float(rng.uniform(0.0, 1.0)))
        self.t1 = float(rng.uniform(0.5, 2.0))

    def run(self, grid=50):
        return balance_verifiers(self.setup, self.split, self.rho0, self.g_i, self.g_j,
                                 self.prescription, 0.0, self.t1,
                                 x0=self.x, x1=self.x, grid=grid)


class WideFrames:
    """``balance_verifiers`` over 50 grid points on setups with d_p = 9 .. 64."""

    KERNEL = "small"
    GRID = 50

    def __init__(self, seed, out_dir):
        rng = _rng(seed, 3)
        self.cases = [WideCase(moduli, rep, rng) for moduli, rep in WIDE]

    def warm_up_calls(self):
        return [lambda case=case: case.run(grid=2) for case in self.cases]

    def round(self):
        return [[case.run] for case in self.cases]

    def grid_points(self, op):
        return self.GRID

    def check(self, op, outputs):
        return check_balance(outputs[0])


def check_balance(report):
    bad = []
    if not report.membership_ok:
        bad.append("membership_ok is false on a trajectory built inside the subalgebra")
    if not report.rates_match:
        bad.append("rates_match is false")
    if not report.rates_max_gap <= CHECK_TOL:
        bad.append(f"rates_max_gap {report.rates_max_gap:.3e} exceeds {CHECK_TOL:.0e}")
    return bad


WORKLOADS = {
    "catalog": Catalog,
    "subalgebra_ladder": SubalgebraLadder,
    "wide_frames": WideFrames,
}
