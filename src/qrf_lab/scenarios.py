"""Named scenarios with deterministic CSV/JSON output.

Every scenario builds a two-frame setup, computes its quantities in both
perspectives, and emits rows over a fixed column schema.  Missing
quantities stay empty, relative-entropy infinities are tagged "inf", and
numbers are written with 17 significant digits so outputs are
golden-file stable.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dynamics import GridEvolution, mean_field_hamiltonian, split_hamiltonian
from .frames import FrameSetup
from .groups import FiniteAbelianGroup
from .operators import ID2, PAULI, SIGMA_X, SIGMA_Z, dagger, kron, partial_trace
from .states import (
    basis_state,
    gb_state,
    ghz_state,
    gibbs_state,
    negative_temperature_predict,
    product_state,
    renyi_entropy,
    von_neumann_entropy,
    w_state,
)
from .subalgebras import (
    BilocalUnitary,
    intersect_projectors,
    invariant_projector,
    membership_scan,
    membership_test,
    pure_state_bilocal_witness,
    transport_bilocal,
)
from .thermo import (
    NonProductInitialStateError,
    Prescription,
    entropy_production_and_flow,
    marginal_energetics,
    state_marginals,
)

VERSION = "0.1.0"

DEFAULT_TOLERANCE = 1e-9
TOLERANCE_ENV_VAR = "QRF_LAB_TOL"

COLUMNS = (
    "t",
    "E_s_i", "E_s_j", "E_frame_i", "E_frame_j", "E_int_i", "E_int_j",
    "qdot_s_i", "qdot_s_j", "wdot_s_i", "wdot_s_j", "estar_s_i", "estar_s_j",
    "SvN_s_i", "SvN_s_j",
    "sigma_i", "sigma_j", "phi_i", "phi_j",
    "in_AX",
)


class ConfigError(ValueError):
    """Configuration rejected; path points at the offending JSON entry."""

    def __init__(self, path, message):
        self.path = path
        self.reason = message
        super().__init__(f"{path}: {message}" if path else message)


def default_tolerance():
    raw = os.environ.get(TOLERANCE_ENV_VAR)
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError("tolerance", f"{TOLERANCE_ENV_VAR} is not a number: {raw!r}")
    if value <= 0:
        raise ConfigError("tolerance", f"{TOLERANCE_ENV_VAR} must be positive, got {value}")
    return value


# --------------------------------------------------------------- validation

_PAULI_NAMES = {
    "1": "I", "i": "I", "id": "I",
    "x": "X", "sx": "X",
    "y": "Y", "sy": "Y",
    "z": "Z", "sz": "Z",
}


def _require(condition, path, message):
    if not condition:
        raise ConfigError(path, message)


def _is_finite_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _as_complex(value, path):
    parts = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, 0.0)
    _require(all(map(_is_finite_number, parts)), path,
             f"expected a finite number or an [re, im] pair of them, got {value!r}")
    return complex(*parts)


def _as_complex_vector(value, path):
    _require(isinstance(value, (list, tuple)) and value, path, "expected a non-empty list")
    vec = np.array([_as_complex(v, f"{path}[{k}]") for k, v in enumerate(value)])
    norm = np.linalg.norm(vec)
    _require(norm > 0, path, "amplitudes must not all vanish")
    return vec / norm


def _as_float(value, path):
    _require(_is_finite_number(value), path, f"expected a finite number, got {value!r}")
    return float(value)


def _as_positive_int(value, path, minimum=1):
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
             path, f"expected an integer >= {minimum}, got {value!r}")
    return int(value)


def _deep_merge(base, override):
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _build_group(raw):
    _require(isinstance(raw, dict) and set(raw) == {"cyclic"}, "group",
             'expected {"cyclic": [n, ...]}')
    moduli = raw["cyclic"]
    _require(isinstance(moduli, list) and moduli, "group.cyclic", "expected a non-empty list")
    for k, n in enumerate(moduli):
        _as_positive_int(n, f"group.cyclic[{k}]")
    try:
        return FiniteAbelianGroup(tuple(moduli))
    except ValueError as exc:
        raise ConfigError("group.cyclic", str(exc))


def _build_setup(group, raw_rep):
    if raw_rep == "regular":
        return FrameSetup.from_rep_config(group, "regular")
    if isinstance(raw_rep, dict) and set(raw_rep) == {"tensor_power"}:
        power = _as_positive_int(raw_rep["tensor_power"], "rep.tensor_power")
        return FrameSetup.from_rep_config(group, {"tensor_power": power})
    if isinstance(raw_rep, dict) and set(raw_rep) == {"matrices"}:
        entries = raw_rep["matrices"]
        _require(isinstance(entries, dict) and entries, "rep.matrices",
                 "expected a map from element index to matrix")
        rep = {}
        for key, rows in entries.items():
            try:
                idx = int(key)
                element = group.elements[idx]
            except (ValueError, IndexError):
                raise ConfigError(f"rep.matrices.{key}", "key must be a valid element index")
            mat = np.array([[_as_complex(v, f"rep.matrices.{key}[{r}][{c}]")
                             for c, v in enumerate(row)] for r, row in enumerate(rows)])
            rep[element] = mat
        try:
            return FrameSetup(group, rep)
        except ValueError as exc:
            raise ConfigError("rep.matrices", str(exc))
    raise ConfigError("rep", f'expected "regular", {{"tensor_power": m}},'
                             f' or {{"matrices": ...}}, got {raw_rep!r}')


def _build_orientation(group, raw, path):
    _require(isinstance(raw, (list, tuple)) and len(raw) == len(group.factors), path,
             f"expected {len(group.factors)} integer components")
    for k, r in enumerate(raw):
        _as_positive_int(r, f"{path}[{k}]", minimum=0)
    try:
        return group.check_element(tuple(raw))
    except ValueError as exc:
        raise ConfigError(path, str(exc))


def _build_time_grid(raw):
    _require(isinstance(raw, dict) and set(raw) <= {"start", "stop", "points"},
             "time_grid", 'expected {"start", "stop", "points"}')
    start = _as_float(raw.get("start", 0.0), "time_grid.start")
    stop = _as_float(raw.get("stop", 2 * math.pi), "time_grid.stop")
    points = _as_positive_int(raw.get("points", 50), "time_grid.points")
    if points > 1:
        _require(stop > start, "time_grid", "grid must be strictly increasing")
    return np.linspace(start, stop, points)


def _build_hamiltonian(setup, raw):
    if raw is None:
        return None
    _require(isinstance(raw, dict) and set(raw) == {"terms"}, "hamiltonian",
             'expected {"terms": [...]}')
    terms = raw["terms"]
    _require(isinstance(terms, list) and terms, "hamiltonian.terms", "expected a non-empty list")
    n_system = round(math.log2(setup.d_s)) if setup.d_s > 1 else 0
    _require(setup.d_frame == 2 and setup.d_s == 2 ** n_system, "hamiltonian",
             "Pauli terms need a qubit frame and a power-of-two system dimension")
    n_factors = 1 + n_system
    total = np.zeros((setup.d_perspective, setup.d_perspective), dtype=complex)
    for i, term in enumerate(terms):
        base = f"hamiltonian.terms[{i}]"
        _require(isinstance(term, dict) and set(term) == {"coefficient", "factors"},
                 base, 'expected {"coefficient", "factors"}')
        coefficient = _as_float(term["coefficient"], f"{base}.coefficient")
        factors = term["factors"]
        _require(isinstance(factors, list) and len(factors) == n_factors,
                 f"{base}.factors", f"expected {n_factors} factors for this setup")
        mats = []
        for j, name in enumerate(factors):
            key = _PAULI_NAMES.get(str(name).lower())
            _require(key is not None, f"{base}.factors[{j}]",
                     f"unknown Pauli name {name!r}")
            mats.append(PAULI[key])
        total = total + coefficient * kron(*mats)
    return total


@dataclass
class ScenarioConfig:
    """Validated scenario configuration with derived objects attached."""

    scenario: str
    group: FiniteAbelianGroup
    setup: FrameSetup
    g_i: tuple
    g_j: tuple
    tolerance: float
    prescription: Prescription
    time_grid: np.ndarray
    hamiltonian: np.ndarray | None
    params: dict
    raw: dict


def parse_config(source, scenario=None):
    """Validate a config given as a dict, JSON text, or a path to a JSON file."""
    if isinstance(source, dict):
        raw = dict(source)
    elif isinstance(source, (str, os.PathLike)):
        text = source
        if isinstance(source, os.PathLike) or os.path.exists(source):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("", f"invalid JSON: {exc}")
    else:
        raise ConfigError("", f"expected a dict, JSON text, or path, got {type(source).__name__}")
    _require(isinstance(raw, dict), "", "top-level config must be a JSON object")

    name = scenario or raw.get("scenario")
    _require(isinstance(name, str) and name, "scenario", "a scenario name is required")
    if name not in SCENARIOS:
        raise ConfigError("scenario", f"unknown scenario {name!r}; valid names: "
                                      + ", ".join(sorted(SCENARIOS)))
    merged = _deep_merge(_deep_merge(_BASE_DEFAULTS, SCENARIOS[name].defaults), raw)
    merged["scenario"] = name
    # The rep block selects one of several alternatives, so a user-supplied
    # value replaces the scenario default instead of merging into it.
    if "rep" in raw:
        merged["rep"] = raw["rep"]

    known = {"scenario", "group", "rep", "orientations", "tolerance", "prescription",
             "time_grid", "hamiltonian", "params"}
    for key in merged:
        _require(key in known, key, "unknown configuration key")

    group = _build_group(merged["group"])
    setup = _build_setup(group, merged["rep"])
    orientations = merged["orientations"]
    _require(isinstance(orientations, dict) and set(orientations) == {"g_i", "g_j"},
             "orientations", 'expected {"g_i": [...], "g_j": [...]}')
    g_i = _build_orientation(group, orientations["g_i"], "orientations.g_i")
    g_j = _build_orientation(group, orientations["g_j"], "orientations.g_j")

    tolerance = merged.get("tolerance")
    if tolerance is None:
        tolerance = default_tolerance()
    tolerance = _as_float(tolerance, "tolerance")
    _require(tolerance > 0, "tolerance", "tolerance must be positive")
    merged["tolerance"] = tolerance

    try:
        prescription = Prescription.from_config(merged["prescription"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError("prescription", str(exc))

    time_grid = _build_time_grid(merged["time_grid"])
    hamiltonian = _build_hamiltonian(setup, merged.get("hamiltonian"))
    params = merged.get("params", {})
    _require(isinstance(params, dict), "params", "expected an object")
    allowed = SCENARIOS[name].param_names
    for key in params:
        _require(key in allowed, f"params.{key}",
                 "unknown parameter; expected one of: " + ", ".join(sorted(allowed)))

    return ScenarioConfig(
        scenario=name,
        group=group,
        setup=setup,
        g_i=g_i,
        g_j=g_j,
        tolerance=tolerance,
        prescription=prescription,
        time_grid=time_grid,
        hamiltonian=hamiltonian,
        params=params,
        raw=merged,
    )


# ------------------------------------------------------------------ results

@dataclass
class ScenarioResult:
    name: str
    config: dict
    rows: list
    summary: dict
    extra_fields: tuple = ()
    columns: tuple = COLUMNS


def _blank_row(t):
    row = {c: None for c in COLUMNS}
    row["t"] = float(t)
    return row


def _format_number(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(float(value), ".17g")


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return _format_number(value)


def write_csv(result, stream):
    stream.write(",".join(result.columns) + "\n")
    for row in result.rows:
        stream.write(",".join(_format_cell(row.get(c)) for c in result.columns) + "\n")


def _jsonify(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {"re": value.real.tolist(), "im": value.imag.tolist()}
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return str(value)


def write_json(result, stream):
    columns = list(result.columns) + list(result.extra_fields)
    document = {
        "scenario": result.name,
        "metadata": {
            "config": _jsonify(result.config),
            "library_version": VERSION,
            "columns": columns,
        },
        "summary": _jsonify(result.summary),
        "rows": [{c: _jsonify(row.get(c)) for c in columns} for row in result.rows],
    }
    json.dump(document, stream, indent=2, allow_nan=False)
    stream.write("\n")


def render(result, out_format):
    buffer = io.StringIO()
    if out_format == "csv":
        write_csv(result, buffer)
    elif out_format == "json":
        write_json(result, buffer)
    else:
        raise ValueError(f"unknown output format {out_format!r}")
    return buffer.getvalue()


# --------------------------------------------------------- shared machinery

_PHASE_LABELS = ((1.0, ""), (-1.0, "-"), (1.0j, "i*"), (-1.0j, "-i*"))


def _pauli_label(mat):
    """Label a matrix as a phase times a tensor product of Paulis, or "?"."""
    d = mat.shape[0]
    n = d.bit_length() - 1
    if d != 2 ** n or n > 3:
        return "?"
    for names in itertools.product("IXYZ", repeat=n):
        candidate = kron(*(PAULI[name] for name in names))
        for phase, prefix in _PHASE_LABELS:
            if np.allclose(mat, phase * candidate, atol=1e-12):
                return prefix + ".".join(names)
    return "?"


def _bilocal_label(x):
    return f"{_pauli_label(x.y)}(x){_pauli_label(x.z)}"


def _energetics_columns(columns, suffix, report):
    columns[f"E_s_{suffix}"] = report.e_s
    columns[f"E_frame_{suffix}"] = report.e_frame
    columns[f"E_int_{suffix}"] = report.e_int
    columns[f"qdot_s_{suffix}"] = report.qdot_conv_s
    columns[f"wdot_s_{suffix}"] = report.wdot_conv_s
    columns[f"estar_s_{suffix}"] = report.e_star_s


def _member(cfg, rho, x):
    """membership_test of rho["i"] against x, reusing its frame-j image rho["j"]."""
    return membership_test(cfg.setup, rho["i"], x, cfg.g_i, cfg.g_j, tol=cfg.tolerance,
                           transformed=rho["j"])


def _dynamic_rows(cfg, h_ibar, rho0_ibar, x_candidates=(), extras=None):
    """Rows for a unitary trajectory, reported in both perspectives.

    The time grid is evolved in blocks, and each block's states reach frame
    j's perspective through one conjugation by the perspective change.
    extras(times, rho, rho_s) gets each block's state stacks and system
    marginals, both keyed by perspective "i" and "j", and returns extra
    columns, one value per time; it may also record summary quantities of
    its own.
    """
    setup = cfg.setup
    dims = (setup.d_frame, setup.d_s)
    change = setup.perspective_change(cfg.g_i, cfg.g_j)
    split = {"i": split_hamiltonian(h_ibar, *dims),
             "j": split_hamiltonian(change.conjugate(h_ibar), *dims)}
    rho0_i = np.asarray(rho0_ibar, dtype=complex)
    rho0 = {"i": rho0_i, "j": change.conjugate(rho0_i)}
    rows = []
    for times, rho_i in GridEvolution(h_ibar).blocks(rho0_i, cfg.time_grid):
        rho = {"i": rho_i, "j": change.conjugate(rho_i)}
        rho_s = {}
        columns = {}
        for suffix, rho_t in rho.items():
            marginals = state_marginals(split[suffix], rho_t)
            report = marginal_energetics(split[suffix], cfg.prescription, marginals)
            _energetics_columns(columns, suffix, report)
            rho_s[suffix] = marginals.rho_s
            columns[f"SvN_s_{suffix}"] = von_neumann_entropy(rho_s[suffix])
            try:
                balance = entropy_production_and_flow(setup, rho0[suffix], rho_t, cfg.tolerance)
            except NonProductInitialStateError:
                continue
            columns[f"sigma_{suffix}"] = balance.sigma
            columns[f"phi_{suffix}"] = balance.phi
        if x_candidates:
            columns["in_AX"] = np.logical_or.reduce([_member(cfg, rho, x).is_member for x in x_candidates])
        if extras is not None:
            columns.update(extras(times, rho, rho_s))
        # Per-time arrays become plain floats and bools; matrices stay arrays.
        columns = {key: values.tolist() if isinstance(values, np.ndarray) and values.ndim == 1
                   else values for key, values in columns.items()}
        for k, t in enumerate(times):
            row = _blank_row(t)
            row.update((key, values[k]) for key, values in columns.items())
            rows.append(row)
    return rows


def _require_qubit_pair(cfg):
    _require(cfg.setup.d_frame == 2 and cfg.setup.d_s == 2, "group",
             f"scenario {cfg.scenario!r} needs one qubit frame pair and a qubit system")


def _static_entropy_row(cfg, psi_or_rho):
    """A t = 0 row of system entropies for a state, or for a stack of states.

    Also returns the states and system marginals in both perspectives, keyed
    by "i" and "j" as in _dynamic_rows.
    """
    setup = cfg.setup
    mat = np.asarray(psi_or_rho, dtype=complex)
    rho_i = np.outer(mat, mat.conj()) if mat.ndim == 1 else mat
    rho = {"i": rho_i, "j": setup.perspective_change(cfg.g_i, cfg.g_j).conjugate(rho_i)}
    rho_s = {suffix: partial_trace(rho_t, (setup.d_frame, setup.d_s), drop=0)
             for suffix, rho_t in rho.items()}
    row = _blank_row(0.0)
    row["SvN_s_i"] = von_neumann_entropy(rho_s["i"])
    row["SvN_s_j"] = von_neumann_entropy(rho_s["j"])
    return row, rho, rho_s


def _ising_chain(a, b, c):
    """a Z(x)1 + b 1(x)Z + c Z(x)Z on the (frame, system) qubit pair."""
    return a * kron(SIGMA_Z, ID2) + b * kron(ID2, SIGMA_Z) + c * kron(SIGMA_Z, SIGMA_Z)


# ---------------------------------------------------------------- scenarios

def _run_three_qubit_subalgebras(cfg):
    _require_qubit_pair(cfg)
    setup = cfg.setup
    coefficients = [_as_float(c, "params.coefficients") for c in cfg.params["coefficients"]]
    scan_coefficients = [_as_float(c, "params.scan_coefficients")
                         for c in cfg.params["scan_coefficients"]]
    _require(len(coefficients) == 3, "params.coefficients", "expected [A, B, C]")
    _require(len(scan_coefficients) == 3, "params.scan_coefficients", "expected [A, B, C]")

    identity_x = BilocalUnitary(ID2, ID2)
    flip_x = BilocalUnitary(ID2, SIGMA_X)
    e = cfg.group.identity
    proj_identity = invariant_projector(setup, identity_x, e, e, tol=cfg.tolerance)
    proj_flip = invariant_projector(setup, flip_x, e, e, tol=cfg.tolerance)
    proj_both = intersect_projectors(proj_identity, proj_flip, tol=cfg.tolerance)

    h = _ising_chain(*coefficients)
    rows = []
    cases = []
    for index, (gi, gj) in enumerate([((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]):
        # The witness at (gi, gj) is the identity transported from (e, e).
        x = transport_bilocal(setup, identity_x, (e, e), (gi, gj))
        res = membership_test(setup, h, x, gi, gj, tol=cfg.tolerance)
        cases.append({
            "g_i": gi[0], "g_j": gj[0],
            "x": _bilocal_label(x),
            "member": res.is_member,
            "residual": res.residual,
        })
        row = _blank_row(float(index))
        row["in_AX"] = res.is_member
        rows.append(row)

    h_scan = _ising_chain(*scan_coefficients)
    candidates = [BilocalUnitary(PAULI[a], PAULI[b]) for a in "IXYZ" for b in "IXYZ"]
    scan = membership_scan(setup, h_scan, candidates, (1,), (1,), tol=cfg.tolerance)
    residuals = [res.residual for _, res in scan]
    summary = {
        "dim_identity": proj_identity.dimension,
        "dim_flip": proj_flip.dimension,
        "dim_intersection": proj_both.dimension,
        "cases": cases,
        "scan": {
            "coefficients": scan_coefficients,
            "member_found": any(res.is_member for _, res in scan),
            "min_residual": min(residuals),
            "max_residual": max(residuals),
        },
    }
    return rows, summary, ()


def _run_w_state(cfg):
    n = _as_positive_int(cfg.params["n_qubits"], "params.n_qubits", minimum=3)
    setup = cfg.setup
    _require(setup.d_frame == 2 and setup.d_s == 2 ** (n - 2), "params.n_qubits",
             f"representation dimension {setup.d_s} does not match {n} qubits")
    amplitudes = _as_complex_vector(cfg.params["amplitudes"], "params.amplitudes")
    _require(amplitudes.size == 2, "params.amplitudes", "expected two amplitudes")

    psi = product_state(amplitudes, w_state(n - 2))
    row, rho, rho_s = _static_entropy_row(cfg, psi)
    witness = pure_state_bilocal_witness(setup, psi, cfg.g_i, cfg.g_j, tol=cfg.tolerance)
    row["in_AX"] = witness is not None
    identity_x = BilocalUnitary(ID2, np.eye(setup.d_s))
    flip_x = BilocalUnitary(ID2, kron(*([SIGMA_X] * (n - 2))))
    summary = {
        "svn_s_i": row["SvN_s_i"],
        "svn_s_j": row["SvN_s_j"],
        "renyi_half_s_j": renyi_entropy(rho_s["j"], 0.5),
        "renyi_two_s_j": renyi_entropy(rho_s["j"], 2.0),
        "witness_found": witness is not None,
        "identity_member": _member(cfg, rho, identity_x).is_member,
        "flip_member": _member(cfg, rho, flip_x).is_member,
    }
    if witness is not None:
        summary["witness"] = _bilocal_label(witness)
        summary["witness_residual"] = _member(cfg, rho, witness).residual
    return [row], summary, ()


def _run_gb_states(cfg):
    setup = cfg.setup
    group = cfg.group
    _require(setup.d_s == group.order ** 2, "rep",
             "scenario needs the system to carry two regular factors")
    shift = _build_orientation(group, cfg.params["shift"], "params.shift")
    character = _build_orientation(group, cfg.params["character"], "params.character")
    amplitudes = _as_complex_vector(cfg.params["frame_amplitudes"], "params.frame_amplitudes")
    _require(amplitudes.size == group.order, "params.frame_amplitudes",
             f"expected {group.order} amplitudes")

    basis = [gb_state(group, h, k)
             for h in group.elements for k in group.elements]
    gram = np.array([[np.vdot(u, v) for v in basis] for u in basis])
    orthonormal_dev = float(np.abs(gram - np.eye(len(basis))).max())
    eigen_dev = 0.0
    for g in group.elements:
        for h in group.elements:
            for k in group.elements:
                v = gb_state(group, h, k)
                lhs = setup.u_s(g) @ v
                rhs = group.character(k, group.inverse(g)) * v
                eigen_dev = max(eigen_dev, float(np.abs(lhs - rhs).max()))

    psi = product_state(amplitudes, gb_state(group, shift, character))
    row, rho, _ = _static_entropy_row(cfg, psi)
    y = sum(group.character(character, g)
            * np.outer(basis_state(group.order, group.index(group.inverse(g))),
                       basis_state(group.order, group.index(g)))
            for g in group.elements)
    witness = BilocalUnitary(np.asarray(y, dtype=complex), np.eye(setup.d_s))
    res = _member(cfg, rho, witness)
    row["in_AX"] = res.is_member
    summary = {
        "basis_orthonormality_dev": orthonormal_dev,
        "eigenrelation_dev": eigen_dev,
        "witness_member": res.is_member,
        "witness_residual": res.residual,
    }
    return [row], summary, ()


def _run_ghz(cfg):
    setup = cfg.setup
    group = cfg.group
    variant = cfg.params["variant"]
    _require(variant in ("separable", "global", "mixed-w"), "params.variant",
             f"expected separable, global, or mixed-w, got {variant!r}")
    _require(group.order == 2 and setup.d_s == 8, "rep",
             "scenario needs a qubit group with a three-qubit system")
    ghz_s = ghz_state(group, 3)
    identity_x = BilocalUnitary(np.eye(2), np.eye(8))
    flip_x = BilocalUnitary(np.eye(2), kron(SIGMA_X, SIGMA_X, SIGMA_X))

    if variant == "separable":
        amplitudes = _as_complex_vector(cfg.params["frame_amplitudes"],
                                        "params.frame_amplitudes")
        psi = product_state(amplitudes, ghz_s)
        row, rho, rho_s = _static_entropy_row(cfg, psi)
        res = _member(cfg, rho, identity_x)
        row["in_AX"] = res.is_member
        summary = {
            "variant": variant,
            "identity_member": res.is_member,
            "identity_residual": res.residual,
            "s_state_preserved_dev": float(np.abs(rho_s["j"] - np.outer(ghz_s, ghz_s.conj())).max()),
        }
        return [row], summary, ()

    if variant == "global":
        psi = ghz_state(group, 4)
        row, rho, rho_s = _static_entropy_row(cfg, psi)
        res = _member(cfg, rho, identity_x)
        row["in_AX"] = res.is_member
        witness = pure_state_bilocal_witness(setup, psi, cfg.g_i, cfg.g_j, tol=cfg.tolerance)
        even_mix = 0.5 * (np.outer(basis_state(8, 0), basis_state(8, 0))
                          + np.outer(basis_state(8, 7), basis_state(8, 7)))
        summary = {
            "variant": variant,
            "identity_member": res.is_member,
            "witness_found": witness is not None,
            "s_i_even_mixture_dev": float(np.abs(rho_s["i"] - even_mix).max()),
            "s_j_ground_dev": float(np.abs(rho_s["j"] - np.outer(basis_state(8, 0),
                                                                 basis_state(8, 0))).max()),
        }
        return [row], summary, ()

    p_w = _as_float(cfg.params["p_w"], "params.p_w")
    _require(0.0 <= p_w <= 1.0, "params.p_w", "expected a probability")
    amplitudes = _as_complex_vector(cfg.params["frame_amplitudes"], "params.frame_amplitudes")
    psi_w = product_state(basis_state(2, 1), w_state(3))
    psi_g = product_state(amplitudes, ghz_s)
    rho_mixed = (p_w * np.outer(psi_w, psi_w.conj())
                 + (1.0 - p_w) * np.outer(psi_g, psi_g.conj()))
    row, rho, rho_s = _static_entropy_row(cfg, rho_mixed)
    res = _member(cfg, rho, flip_x)
    row["in_AX"] = res.is_member
    rho_s_i, rho_s_j = rho_s["i"], rho_s["j"]
    sx3 = kron(SIGMA_X, SIGMA_X, SIGMA_X)
    summary = {
        "variant": variant,
        "branch_overlap": float(abs(np.vdot(psi_w, psi_g))),
        "flip_member": res.is_member,
        "flip_residual": res.residual,
        "conjugation_dev": float(np.abs(rho_s_j - sx3 @ rho_s_i @ sx3).max()),
        "svn_gap": abs(von_neumann_entropy(rho_s_i) - von_neumann_entropy(rho_s_j)),
        "renyi_half_gap": abs(renyi_entropy(rho_s_i, 0.5) - renyi_entropy(rho_s_j, 0.5)),
        "renyi_two_gap": abs(renyi_entropy(rho_s_i, 2.0) - renyi_entropy(rho_s_j, 2.0)),
    }
    return [row], summary, ()


def _run_zz_oscillation(cfg):
    _require_qubit_pair(cfg)
    field_b = _as_float(cfg.params["field_b"], "params.field_b")
    coupling_j = _as_float(cfg.params["coupling_j"], "params.coupling_j")
    state = cfg.params["state"]
    _require(state in ("plus-plus", "one-ab"), "params.state",
             f"expected plus-plus or one-ab, got {state!r}")
    h = cfg.hamiltonian if cfg.hamiltonian is not None \
        else _ising_chain(field_b, field_b, 2.0 * coupling_j)
    if state == "plus-plus":
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        psi0 = product_state(plus, plus)
    else:
        amplitudes = _as_complex_vector(cfg.params["amplitudes"], "params.amplitudes")
        _require(amplitudes.size == 2, "params.amplitudes", "expected two amplitudes")
        psi0 = product_state(basis_state(2, 1), amplitudes)
    rho0 = np.outer(psi0, psi0.conj())
    identity_x = BilocalUnitary(ID2, ID2)
    flip_x = BilocalUnitary(ID2, SIGMA_X)
    in_identity, in_flip = [], []

    def memberships(times, rho, rho_s):
        # in_AX is filled here, so that each label is tested once per block.
        in_x = [_member(cfg, rho, x).is_member for x in (identity_x, flip_x)]
        in_identity.extend(times[in_x[0]].tolist())
        in_flip.extend(times[in_x[1]].tolist())
        return {"in_AX": in_x[0] | in_x[1]}

    rows = _dynamic_rows(cfg, h, rho0, extras=memberships)
    summary = {
        "field_b": field_b,
        "coupling_j": coupling_j,
        "in_identity_times": in_identity,
        "in_flip_times": in_flip,
    }
    return rows, summary, ()


def _run_effectively_isolated(cfg):
    _require_qubit_pair(cfg)
    setup = cfg.setup
    field_b = _as_float(cfg.params["field_b"], "params.field_b")
    coupling_j = _as_float(cfg.params["coupling_j"], "params.coupling_j")
    amplitudes = _as_complex_vector(cfg.params["amplitudes"], "params.amplitudes")
    _require(amplitudes.size == 2, "params.amplitudes", "expected two amplitudes")
    h = cfg.hamiltonian if cfg.hamiltonian is not None \
        else _ising_chain(field_b, field_b, 2.0 * coupling_j)
    psi0 = product_state(basis_state(2, 1), amplitudes)
    rho0 = np.outer(psi0, psi0.conj())
    flip_x = BilocalUnitary(ID2, SIGMA_X)
    swap_devs = []

    def swap_deviation(times, rho, rho_s):
        swap_devs.append(float(np.abs(rho_s["j"] - SIGMA_X @ rho_s["i"] @ SIGMA_X).max()))
        return {}

    rows = _dynamic_rows(cfg, h, rho0, x_candidates=(flip_x,), extras=swap_deviation)
    dims = (setup.d_frame, setup.d_s)
    split = split_hamiltonian(h, *dims)
    rho_frame = partial_trace(rho0, dims, drop=1)
    h_tilde_s = mean_field_hamiltonian(split, rho_frame, on="s")
    summary = {
        "conjugation_dev": max(swap_devs),
        "h_tilde_s_dev_from_minus_2j_z": float(
            np.abs(h_tilde_s - (-2.0 * coupling_j) * SIGMA_Z).max()),
    }
    return rows, summary, ()


def _run_relative_equilibrium(cfg):
    _require_qubit_pair(cfg)
    a = _as_float(cfg.params["a"], "params.a")
    b = _as_float(cfg.params["b"], "params.b")
    beta = _as_float(cfg.params["beta"], "params.beta")
    h = cfg.hamiltonian if cfg.hamiltonian is not None \
        else a * kron(SIGMA_X, ID2) + b * kron(ID2, SIGMA_Z)
    thermal = gibbs_state(SIGMA_Z, beta)
    rho0 = kron(np.diag([1.0, 0.0]).astype(complex), thermal)
    inverted = gibbs_state(SIGMA_Z, -beta)
    mixture_devs, stationary_devs = [], []

    def deviations(times, rho, rho_s):
        targets = np.array([math.cos(a * t) ** 2 * thermal + math.sin(a * t) ** 2 * inverted
                            for t in times])
        mixture_devs.append(float(np.abs(rho_s["j"] - targets).max()))
        stationary_devs.append(float(np.abs(rho_s["i"] - thermal).max()))
        return {}

    rows = _dynamic_rows(cfg, h, rho0, extras=deviations)
    summary = {
        "mixture_formula_dev": max(mixture_devs),
        "stationary_thermal_dev": max(stationary_devs),
    }
    return rows, summary, ()


def _run_negative_temperature(cfg):
    _require_qubit_pair(cfg)
    setup = cfg.setup
    mu = _as_float(cfg.params["mu"], "params.mu")
    nu = _as_float(cfg.params["nu"], "params.nu")
    beta = _as_float(cfg.params["beta"], "params.beta")
    h_s = SIGMA_Z
    h = (nu * kron(SIGMA_Z, ID2) + kron(ID2, h_s) + mu * kron(SIGMA_Z, h_s))
    if cfg.hamiltonian is not None:
        h = cfg.hamiltonian
    rho_frame0 = np.diag([0.0, 1.0]).astype(complex)
    rho0 = kron(rho_frame0, gibbs_state(h_s, beta))

    def extras(times, rho, rho_s):
        return {"rho_S_R1": rho_s["i"], "rho_S_R2": rho_s["j"]}

    rows = _dynamic_rows(cfg, h, rho0, extras=extras)

    row0, _, rho_s0 = _static_entropy_row(cfg, rho0)
    rho_s_j = rho_s0["j"]
    report = negative_temperature_predict(setup, h_s, beta, rho_frame0, cfg.g_j)
    stationarity = float(np.linalg.norm(h @ rho0 - rho0 @ h))
    summary = {
        "mu": mu,
        "stationarity_dev": stationarity,
        "q_a": report.q_a,
        "prediction_dev": float(np.abs(rho_s_j - report.predicted).max()),
        "negative_beta_gibbs_dev": float(
            np.abs(rho_s_j - gibbs_state(mu * h_s, -beta / mu)).max()) if mu != 0 else None,
    }
    if mu == 1.0:
        summary["conjugation_dev"] = float(
            np.abs(rho_s_j - SIGMA_X @ rho_s0["i"] @ SIGMA_X).max())
        summary["entropy_gap"] = abs(row0["SvN_s_i"] - row0["SvN_s_j"])
    return rows, summary, ("rho_S_R1", "rho_S_R2")


def _run_isolated_vs_closed(cfg):
    _require_qubit_pair(cfg)
    setup = cfg.setup
    state = cfg.params["state"]
    h = cfg.hamiltonian if cfg.hamiltonian is not None \
        else kron(SIGMA_X, ID2) + kron(ID2, SIGMA_X)
    if state == "bell":
        psi_j = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    else:
        psi_j = _as_complex_vector(state, "params.state")
        _require(psi_j.size == 4, "params.state",
                 'expected "bell" or four amplitudes')
    psi_i = dagger(setup.perspective_change(cfg.g_i, cfg.g_j).matrix) @ psi_j
    rho0 = np.outer(psi_i, psi_i.conj())
    marginal_devs = []

    def marginal_deviation(times, rho, rho_s):
        rho_frame_j = partial_trace(rho["j"], (setup.d_frame, setup.d_s), drop=1)
        for marginal in (rho_s["j"], rho_frame_j):
            marginal_devs.append(float(np.abs(marginal - ID2 / 2).max()))
        return {}

    rows = _dynamic_rows(cfg, h, rho0, extras=marginal_deviation)
    max_rate = 0.0
    for row in rows:
        for key in ("qdot_s_i", "wdot_s_i", "estar_s_i", "qdot_s_j", "wdot_s_j", "estar_s_j"):
            max_rate = max(max_rate, abs(row[key]))
    summary = {
        "max_abs_rate": max_rate,
        "max_marginal_dev_from_maximally_mixed_j": max(marginal_devs),
    }
    return rows, summary, ()


def _run_zero_to_nonzero_entropy(cfg):
    _require_qubit_pair(cfg)
    beta = _as_float(cfg.params["beta"], "params.beta")
    h = cfg.hamiltonian if cfg.hamiltonian is not None \
        else kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_Z)
    xplus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    rho0 = kron(gibbs_state(SIGMA_Z, beta), np.outer(xplus, xplus.conj()))

    def extras(times, rho, rho_s):
        return {f"purity_s_{suffix}": np.trace(r @ r, axis1=-2, axis2=-1).real
                for suffix, r in rho_s.items()}

    rows = _dynamic_rows(cfg, h, rho0, extras=extras)

    purity_dev = 0.0
    for row in rows:
        t = row["t"]
        target = 0.5 * (1.0 + math.cos(2 * t) ** 2
                        + math.tanh(beta) ** 2 * math.sin(2 * t) ** 2)
        purity_dev = max(purity_dev, abs(row["purity_s_j"] - target))
    summary = {
        "beta": beta,
        "purity_formula_dev": purity_dev,
        "max_sigma_i": max(row["sigma_i"] for row in rows),
        "max_phi_i": max(abs(row["phi_i"]) for row in rows),
        "max_phi_j": max(abs(row["phi_j"]) for row in rows),
    }
    return rows, summary, ("purity_s_i", "purity_s_j")


def _run_entropy_balance_oscillation(cfg):
    _require_qubit_pair(cfg)
    h = cfg.hamiltonian if cfg.hamiltonian is not None \
        else kron(SIGMA_X, ID2) + kron(ID2, SIGMA_X)
    psi0 = product_state(basis_state(2, 1), basis_state(2, 0))
    rho0 = np.outer(psi0, psi0.conj())
    x0 = BilocalUnitary(SIGMA_X, ID2)
    x1 = BilocalUnitary(SIGMA_X, SIGMA_X)
    rows = _dynamic_rows(cfg, h, rho0, x_candidates=(x0, x1))

    # Off-grid probe times, evolved together from one eigendecomposition.
    probes = (math.pi, math.pi / 2, 0.7)
    entropies, rho, _ = _static_entropy_row(cfg, GridEvolution(h).states(rho0, probes))

    def member_at(k, x):
        return _member(cfg, {suffix: rho_t[k] for suffix, rho_t in rho.items()}, x).is_member

    special = {
        "x0_member_at_pi": member_at(0, x0),
        "x1_member_at_half_pi": member_at(1, x1),
        "x0_member_at_0p7": member_at(2, x0),
        "x1_member_at_0p7": member_at(2, x1),
    }
    s_i, s_j = entropies["SvN_s_i"], entropies["SvN_s_j"]
    delta = [{"t": t, "svn_s_i": float(s_i[k]), "svn_s_j": float(s_j[k])}
             for k, t in enumerate(probes)]
    summary = {"memberships": special, "entropy_probes": delta}
    return rows, summary, ()


# ----------------------------------------------------------------- registry

@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    defaults: dict
    param_names: frozenset
    run: object = field(repr=False, default=None)


def _scenario(name, description, defaults, run):
    params = defaults.get("params", {})
    return Scenario(name=name, description=description, defaults=defaults,
                    param_names=frozenset(params), run=run)


_BASE_DEFAULTS = {
    "group": {"cyclic": [2]},
    "rep": "regular",
    "orientations": {"g_i": [0], "g_j": [0]},
    "prescription": {"prescription": "split_alpha", "alpha_s": 0.5},
    "time_grid": {"start": 0.0, "stop": 2 * math.pi, "points": 50},
    "params": {},
}

_SQRT_HALF = 1.0 / math.sqrt(2.0)

SCENARIOS = {}
for scenario in (
    _scenario(
        "three-qubit-subalgebras",
        "Invariant-subalgebra dimensions and an Ising-chain membership table "
        "for two qubit frames and one system qubit.",
        {"time_grid": {"start": 0.0, "stop": 3.0, "points": 4},
         "params": {"coefficients": [1.0, 1.0, 1.0],
                    "scan_coefficients": [1.0, 1.0, 2.0]}},
        _run_three_qubit_subalgebras,
    ),
    _scenario(
        "w-state",
        "W-type superposition: subsystem entropies and bilocal witnesses "
        "in both frame perspectives.",
        {"rep": {"tensor_power": 3},
         "time_grid": {"start": 0.0, "stop": 0.0, "points": 1},
         "params": {"n_qubits": 5, "amplitudes": [_SQRT_HALF, _SQRT_HALF]}},
        _run_w_state,
    ),
    _scenario(
        "gb-states",
        "Relative-shift/character basis states over a cyclic group: "
        "eigenrelations and an exact bilocal witness.",
        {"group": {"cyclic": [3]},
         "rep": {"tensor_power": 2},
         "time_grid": {"start": 0.0, "stop": 0.0, "points": 1},
         "params": {"shift": [1], "character": [2],
                    "frame_amplitudes": [[0.3, 0.1], [-0.5, 0.0], [0.0, 0.8]]}},
        _run_gb_states,
    ),
    _scenario(
        "ghz",
        "GHZ chain in separable, globally entangled, and mixed variants; "
        "witness existence and entropies.",
        {"rep": {"tensor_power": 3},
         "time_grid": {"start": 0.0, "stop": 0.0, "points": 1},
         "params": {"variant": "separable",
                    "frame_amplitudes": [[0.28, -0.4], [0.87, 0.0]],
                    "p_w": 0.3}},
        _run_ghz,
    ),
    _scenario(
        "zz-oscillation",
        "ZZ-coupled qubit pair oscillating through two invariant "
        "subalgebras; full rate table.",
        {"time_grid": {"start": 0.0, "stop": 2 * math.pi, "points": 61},
         "params": {"field_b": 1.0, "coupling_j": 1.0, "state": "plus-plus",
                    "amplitudes": [1.0 / math.sqrt(3.0), math.sqrt(2.0 / 3.0)]}},
        _run_zz_oscillation,
    ),
    _scenario(
        "effectively-isolated",
        "Interacting chain whose system marginals in the two perspectives "
        "stay unitarily related for all times.",
        {"params": {"field_b": 0.7, "coupling_j": 0.4, "amplitudes": [0.6, 0.8]}},
        _run_effectively_isolated,
    ),
    _scenario(
        "relative-equilibrium",
        "System stationary and thermal for one frame while the other sees "
        "an oscillating thermal mixture.",
        {"params": {"a": 1.0, "b": 1.0, "beta": 1.0}},
        _run_relative_equilibrium,
    ),
    _scenario(
        "negative-temperature",
        "Stationary product state read as a positive-temperature Gibbs state "
        "by one frame and a negative-temperature one by the other.",
        {"time_grid": {"start": 0.0, "stop": 1.0, "points": 5},
         "params": {"mu": 2.0, "nu": 1.0, "beta": 1.0}},
        _run_negative_temperature,
    ),
    _scenario(
        "isolated-vs-closed",
        "X(x)1 + 1(x)X, free for one frame and interacting for the other, "
        "conserves every effective energy for any state; the Bell state "
        "leaves S pure for frame i and maximally mixed for frame j.",
        {"params": {"state": "bell"}},
        _run_isolated_vs_closed,
    ),
    _scenario(
        "zero-to-nonzero-entropy",
        "Zero entropy production for one frame, periodic production for the "
        "other, with a closed-form system purity.",
        {"params": {"beta": 1.0}},
        _run_zero_to_nonzero_entropy,
    ),
    _scenario(
        "entropy-balance-oscillation",
        "Entropy balances of the two perspectives coinciding at special "
        "times and differing between them.",
        {"orientations": {"g_i": [0], "g_j": [1]},
         "time_grid": {"start": 0.0, "stop": 2 * math.pi, "points": 41}},
        _run_entropy_balance_oscillation,
    ),
):
    SCENARIOS[scenario.name] = scenario


def list_scenarios():
    """Catalog of built-in scenarios as (name, description) pairs."""
    return [(s.name, s.description) for s in SCENARIOS.values()]


def run_scenario(source, scenario=None):
    """Parse, run, and collect one scenario into a ScenarioResult."""
    cfg = source if isinstance(source, ScenarioConfig) else parse_config(source, scenario)
    rows, summary, extra_fields = SCENARIOS[cfg.scenario].run(cfg)
    return ScenarioResult(
        name=cfg.scenario,
        config=cfg.raw,
        rows=rows,
        summary=summary,
        extra_fields=tuple(extra_fields),
    )
