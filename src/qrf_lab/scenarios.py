"""Named scenarios with deterministic CSV/JSON output.

Every scenario builds a two-frame setup, computes its quantities in both
perspectives, and emits rows over a fixed column schema.  Missing
quantities stay empty, relative-entropy infinities are tagged "inf", and
numbers are written with 17 significant digits so outputs are
golden-file stable.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .dynamics import GridEvolution, conjugated_split, mean_field_hamiltonian, split_hamiltonian, stacked_split
from .frames import FrameSetup
from .groups import FiniteAbelianGroup
from .operators import ID2, PAULI, SIGMA_X, SIGMA_Z, hs_norm, kron, partial_trace
from .states import (
    basis_state,
    gb_state,
    ghz_state,
    gibbs_state,
    negative_temperature_predict,
    product_state,
    purity,
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
    Prescription,
    entropy_balance,
    initial_product,
    marginal_energetics,
    trajectory_runs,
)

VERSION = "0.1.0"

DEFAULT_TOLERANCE = 1e-9
# Largest d_p x d_p complex matrix a config may ask for: 64 MiB, d_p <= 2048; w-state peaks at 7.5 of them.
_MATRIX_BUDGET_BYTES = 64 * 2 ** 20
# A time-grid point costs at most 6.9 KB of grid, rows and rendered output
# (tracemalloc, every time-grid scenario in both formats); the budget
# admits 32768 points.
_POINT_BYTES = 8 * 2 ** 10
_GRID_BUDGET_BYTES = 256 * 2 ** 20

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


def _require_affordable(group, d_s, path):
    """Refuse d_p = |G| d_s over the budget from the config alone, before any d_p-sized array exists."""
    size = 16 * (group.order * d_s) ** 2
    _require(size <= _MATRIX_BUDGET_BYTES, path, f"perspective dimension {group.order * d_s} needs "
             f"{size} bytes per complex matrix, above the {_MATRIX_BUDGET_BYTES}-byte budget")


def _parse_rep(group, raw_rep):
    """The system dimension d_s of a rep config within the budget, and a builder of its FrameSetup."""
    if raw_rep == "regular":
        _require_affordable(group, group.order, "group.cyclic")
        return group.order, lambda: FrameSetup.from_rep_config(group, "regular")
    if isinstance(raw_rep, dict) and set(raw_rep) == {"tensor_power"}:
        power = _as_positive_int(raw_rep["tensor_power"], "rep.tensor_power")
        # The order is at least 2, so a power past 64 is over the budget at any order.
        _require_affordable(group, group.order ** min(power, 64), "rep.tensor_power")
        return group.order ** power, lambda: FrameSetup.from_rep_config(group, {"tensor_power": power})
    if isinstance(raw_rep, dict) and set(raw_rep) == {"matrices"}:
        entries = raw_rep["matrices"]
        _require(isinstance(entries, dict) and entries, "rep.matrices",
                 "expected a map from element index to matrix")
        mats = {}
        for key, rows in entries.items():
            _require(isinstance(rows, list) and rows and all(
                isinstance(row, list) and len(row) == len(rows[0]) for row in rows),
                f"rep.matrices.{key}", f"expected a non-empty list of equal-length rows, got {rows!r}")
            mats[key] = np.array([[_as_complex(v, f"rep.matrices.{key}[{r}][{c}]")
                                   for c, v in enumerate(row)] for r, row in enumerate(rows)])
        d_s = max(len(mat) for mat in mats.values())
        _require_affordable(group, d_s, "rep.matrices")
        indices = {}
        for key in mats:
            _require(str(key).isdecimal() and int(key) < group.order, f"rep.matrices.{key}",
                     "key must be a valid element index")
            _require((first := indices.setdefault(int(key), key)) == key, f"rep.matrices.{key}",
                     f"keys {first!r} and {key!r} name the same element")
        _require(all(mat.shape == (d_s, d_s) for mat in mats.values()), "rep.matrices",
                 "representation matrices must share one square shape")
        elements = group.elements  # affordable, so the list is small
        rep = {elements[int(key)]: mat for key, mat in mats.items()}
        return d_s, lambda: FrameSetup(group, rep)
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
    size = _POINT_BYTES * points
    _require(size <= _GRID_BUDGET_BYTES, "time_grid.points", f"{points} points need an estimated {size} "
             f"bytes of grid and rows, above the {_GRID_BUDGET_BYTES}-byte budget")
    if points > 1:
        _require(stop > start, "time_grid", "grid must be strictly increasing")
    return np.linspace(start, stop, points)


def _pauli_terms(order, d_s, raw):
    """Each hamiltonian term as (coefficient, Pauli factors), checked against the config's (|G|, d_s)."""
    if raw is None:
        return None
    _require(isinstance(raw, dict) and set(raw) == {"terms"}, "hamiltonian",
             'expected {"terms": [...]}')
    terms = raw["terms"]
    _require(isinstance(terms, list) and terms, "hamiltonian.terms", "expected a non-empty list")
    n_system = round(math.log2(d_s)) if d_s > 1 else 0
    _require(order == 2 and d_s == 2 ** n_system, "hamiltonian",
             "Pauli terms need a qubit frame and a power-of-two system dimension")
    n_factors = 1 + n_system
    parsed = []
    for i, term in enumerate(terms):
        base = f"hamiltonian.terms[{i}]"
        _require(isinstance(term, dict) and set(term) == {"coefficient", "factors"},
                 base, 'expected {"coefficient", "factors"}')
        coefficient = _as_float(term["coefficient"], f"{base}.coefficient")
        factors = term["factors"]
        _require(isinstance(factors, list) and len(factors) == n_factors,
                 f"{base}.factors", f"expected {n_factors} factors for this setup")
        for j, name in enumerate(factors):
            _require(str(name).lower() in _PAULI_NAMES, f"{base}.factors[{j}]", f"unknown Pauli name {name!r}")
        parsed.append((coefficient, [PAULI[_PAULI_NAMES[str(name).lower()]] for name in factors]))
    return parsed


@dataclass
class ScenarioConfig:
    """Validated scenario configuration with derived objects attached; setup.group is its group."""

    scenario: str
    setup: FrameSetup
    g_i: tuple
    g_j: tuple
    tolerance: float
    prescription: Prescription
    time_grid: np.ndarray
    hamiltonian: np.ndarray | None
    params: dict
    raw: dict


def load_config_object(source, where=""):
    """The JSON object in the file at path source, or in the JSON text source, else a ConfigError;
    where (e.g. " in cfg.json") follows "invalid JSON" or "top-level config" in its message."""
    text = source
    if isinstance(source, os.PathLike) or os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON{where}: {exc}")
    _require(isinstance(raw, dict), "", f"top-level config{where} must be a JSON object")
    return raw


def parse_config(source):
    """Validate a config given as a dict, JSON text, or a path to a JSON file."""
    if isinstance(source, dict):
        raw = dict(source)
    elif isinstance(source, (str, os.PathLike)):
        raw = load_config_object(source)
    else:
        raise ConfigError("", f"expected a dict, JSON text, or path, got {type(source).__name__}")

    name = raw.get("scenario")
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

    # Every check reads the config and the (|G|, d_s) it implies; the setup and H come last.
    group = _build_group(merged["group"])
    d_s, build_setup = _parse_rep(group, merged["rep"])
    orientations = merged["orientations"]
    _require(isinstance(orientations, dict) and set(orientations) == {"g_i", "g_j"},
             "orientations", 'expected {"g_i": [...], "g_j": [...]}')
    g_i = _build_orientation(group, orientations["g_i"], "orientations.g_i")
    g_j = _build_orientation(group, orientations["g_j"], "orientations.g_j")

    tolerance = merged.get("tolerance")
    tolerance = _as_float(DEFAULT_TOLERANCE if tolerance is None else tolerance, "tolerance")
    _require(tolerance > 0, "tolerance", "tolerance must be positive")
    merged["tolerance"] = tolerance

    prescription = merged["prescription"]
    _require(isinstance(prescription, dict), "prescription",
             'expected {"prescription": "split_alpha" or "commuting_part", "alpha_s": number}')
    for key in prescription:
        _require(key in ("prescription", "alpha_s"), f"prescription.{key}", "unknown prescription key")
    alpha_s = _as_float(prescription.get("alpha_s", 0.5), "prescription.alpha_s")
    kind = prescription.get("prescription")
    _require(kind in ("split_alpha", "commuting_part"), "prescription",
             f"unknown prescription config {prescription!r}")
    # commuting_part shares no interaction mean, so it ignores the alpha_s the defaults carry.
    prescription = (Prescription.split_alpha(alpha_s) if kind == "split_alpha"
                    else Prescription.commuting_part())

    time_grid = _build_time_grid(merged["time_grid"])
    _require(SCENARIOS[name].run is None or merged.get("hamiltonian") is None, "hamiltonian",
             f"scenario {name!r} reads no hamiltonian")
    terms = _pauli_terms(group.order, d_s, merged.get("hamiltonian"))
    params = merged.get("params", {})
    _require(isinstance(params, dict), "params", "expected an object")
    defaults = SCENARIOS[name].defaults.get("params", {})
    for key in params:
        _require(key in defaults, f"params.{key}",
                 "unknown parameter; expected one of: " + ", ".join(sorted(defaults)))
    # A parameter whose default is a float or an amplitude list is validated
    # here, once, whichever branch reads it; the config echo (merged) keeps
    # the value as given.
    params = {key: _as_float(value, f"params.{key}") if isinstance(defaults[key], float) else value
              for key, value in params.items()}
    for key, count, message in (("amplitudes", 2, "expected two amplitudes"),
                                ("frame_amplitudes", group.order, f"expected {group.order} amplitudes")):
        if key in params:
            params[key] = _as_complex_vector(params[key], f"params.{key}")
            _require(params[key].size == count, f"params.{key}", message)
    SCENARIOS[name].requires(name, group, d_s, params)

    try:  # only a rep.matrices config can be refused here: regular and tensor-power reps are valid
        setup = build_setup()
    except ValueError as exc:
        raise ConfigError("rep.matrices", str(exc))
    hamiltonian = None if terms is None else sum(
        (c * kron(*mats) for c, mats in terms), np.zeros((setup.d_perspective,) * 2, dtype=complex))

    return ScenarioConfig(
        scenario=name,
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


def _blank_row(t):
    row = dict.fromkeys(COLUMNS)
    row["t"] = float(t)
    return row


def _csv_text(result):
    # One pass per row.  "%.17g" writes a number as format(float(v), ".17g")
    # does (inf, -0 included) and a bool, np.bool_ too, as 1 or 0.
    lines = [",".join(COLUMNS)]
    lines += [",".join(["" if v is None else "%.17g" % v for v in map(row.get, COLUMNS)])
              for row in result.rows]
    return "\n".join(lines) + "\n"


def _json_text(value, pad="\n", strict=False):
    """JSON text of value at the indent of pad, byte for byte as json.dumps(indent=2, allow_nan=False).

    Before encoding, scalar +/-inf becomes "inf"/"-inf" (inside arrays and
    complex numbers, strict, it raises ValueError, as NaN does anywhere),
    np.bool_, unknown objects and dict keys become str(value), complex {"re", "im"}.
    """
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isinf(value) and not strict:
            return f'"{value}"'
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    if isinstance(value, (complex, np.complexfloating)):
        return _json_text({"re": float(value.real), "im": float(value.imag)}, pad, True)
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return _json_text({"re": value.real.tolist(), "im": value.imag.tolist()}, pad, True)
        return _json_text(value.tolist(), pad, True)
    inner = pad + "  "
    if isinstance(value, dict):
        items = {str(k): v for k, v in value.items()}.items()
        body = [encode_basestring_ascii(k) + ": " + _json_text(v, inner, strict) for k, v in items]
        return "{" + inner + ("," + inner).join(body) + pad + "}" if body else "{}"
    if isinstance(value, (list, tuple)):
        body = [_json_text(v, inner, strict) for v in value]
        return "[" + inner + ("," + inner).join(body) + pad + "]" if body else "[]"
    return encode_basestring_ascii(str(value))


def _json_document(result):
    # _json_text's document, with each row in one pass: a finite float by float.__repr__, the rest through it.
    columns = list(COLUMNS) + list(result.extra_fields)
    head = _json_text({
        "scenario": result.name,
        "metadata": {
            "config": result.config,
            "library_version": VERSION,
            "columns": columns,
        },
        "summary": result.summary,
    })
    pad = "\n      "
    keys = [encode_basestring_ascii(c) + ": " for c in columns]
    rows = ["{" + pad + ("," + pad).join(
        [key + (float.__repr__(v) if type(v) is float and math.isfinite(v) else _json_text(v, pad))
         for key, v in zip(keys, map(row.get, columns))]) + "\n    }" for row in result.rows]
    body = "[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]"
    return head[:-2] + ',\n  "rows": ' + body + "\n}\n"


def render(result, out_format):
    """The CSV or JSON text of a ScenarioResult."""
    if out_format not in ("csv", "json"):
        raise ValueError(f"unknown output format {out_format!r}")
    return _csv_text(result) if out_format == "csv" else _json_document(result)


# --------------------------------------------------------- shared machinery

_PHASE_LABELS = ((1.0, ""), (-1.0, "-"), (1.0j, "i*"), (-1.0j, "-i*"))


def _pauli_strings(n):
    strings = list(itertools.product("IXYZ", repeat=n))
    return [".".join(names) for names in strings], np.stack([kron(*(PAULI[c] for c in names)) for names in strings])


# The names and the stacked matrices of every n-qubit Pauli string, n = 1..3.
_PAULI_STRINGS = {n: _pauli_strings(n) for n in (1, 2, 3)}


def _pauli_label(mat):
    """Label a matrix as a phase times a tensor product of Paulis, or "?".

    The strings P are orthonormal under Tr(P M) / d, so only the one with the
    largest coefficient, at the nearest of the four phases, can match; it is
    confirmed with np.allclose(mat, phase * P, atol=1e-12)'s bound, written
    out: |M - phase P| <= 1e-12 + 1e-5 |phase P| entrywise.
    """
    d = mat.shape[0]
    n = d.bit_length() - 1
    if d != 2 ** n or n not in _PAULI_STRINGS:
        return "?"
    names, stack = _PAULI_STRINGS[n]
    # Tr(P M) = sum conj(P) * M for a Hermitian P.
    coefficients = stack.reshape(len(names), d * d).conj() @ np.ravel(mat) / d
    k = int(np.abs(coefficients).argmax())
    phase, prefix = max(_PHASE_LABELS, key=lambda label: (np.conj(label[0]) * coefficients[k]).real)
    target = phase * stack[k]
    return prefix + names[k] if (np.abs(mat - target) <= 1e-12 + 1e-5 * np.abs(target)).all() else "?"


def _bilocal_label(x):
    return f"{_pauli_label(x.y)}(x){_pauli_label(x.z)}"


# Column stem -> ThermoReport field, in COLUMNS order; each stem has an _i and a _j column.
_ENERGETICS_COLUMNS = {"E_s": "e_s", "E_frame": "e_frame", "E_int": "e_int",
                       "qdot_s": "qdot_conv_s", "wdot_s": "wdot_conv_s", "estar_s": "e_star_s"}


def _member(cfg, rho, x):
    """membership_test of rho[0], frame i's state or stack, against x, reusing its frame-j image rho[1]."""
    return membership_test(cfg.setup, rho[0], x, cfg.g_i, cfg.g_j, tol=cfg.tolerance, transformed=rho[1])


def _dynamic_rows(cfg, h_ibar, rho0_ibar, candidates, extras):
    """Rows for a unitary trajectory, reported in both perspectives.

    The split of H and the InitialProduct of rho0 hold both perspectives,
    frame i first, with the leading axes (2, 1) that meet a run's (2, k)
    stacks.  The grid is read through thermo.trajectory_runs, one run of
    blocks at a time: per block, the candidates' membership verdicts; per
    run, energetics, entropies and entropy balances of both perspectives in
    one call each.  S(rho(t)) is S(rho0) at every time and in both
    perspectives, taken once; a perspective whose rho0 is no product keeps
    its sigma and phi cells empty.  in_AX is the candidates' verdicts or-ed
    together.  extras(times, marginals, members) gets the run's
    StateMarginals and the candidates' verdicts, and returns extra columns,
    one value per time.  Each row is one dict over the run's column lists.
    """
    setup = cfg.setup
    dims, change = (setup.d_frame, setup.d_s), setup.perspective_change(cfg.g_i, cfg.g_j)
    h_ibar, rho0_i = np.asarray(h_ibar, dtype=complex), np.asarray(rho0_ibar, dtype=complex)
    split = stacked_split(split_hamiltonian(h_ibar, *dims), conjugated_split(change, h_ibar, *dims))
    initial = initial_product(setup, np.stack([rho0_i, change.conjugate(rho0_i)])[:, None], cfg.tolerance)
    products, s_t = np.ravel(initial.is_product), von_neumann_entropy(rho0_i)

    def read(rho):
        return [_member(cfg, rho, x).is_member for x in candidates]

    rows = []
    for times, marginals, members in trajectory_runs(GridEvolution(h_ibar), change, split, rho0_i,
                                                     cfg.time_grid, read):
        report = marginal_energetics(split, cfg.prescription, marginals)
        s_s = von_neumann_entropy(marginals.rho_s)
        balance = entropy_balance(initial, s_t, marginals.rho_frame, s_s)
        blank = [None] * len(times)
        pairs = [getattr(report, name) for name in _ENERGETICS_COLUMNS.values()] + [s_s] + [
            [values if product else blank for values, product in zip(pair, products)]
            for pair in (balance.sigma, balance.phi)]
        extra = extras(times, marginals, members) if extras else {}
        in_ax = np.logical_or.reduce(members) if members else blank
        keys, columns = COLUMNS + tuple(extra), [times, *itertools.chain(*pairs), in_ax, *extra.values()]
        # Per-time arrays become plain floats and bools; matrices stay arrays.
        per_time = zip(*[values.tolist() if isinstance(values, np.ndarray) and values.ndim == 1
                         else values for values in columns])
        rows += [dict(zip(keys, values)) for values in per_time]
    return rows


def _static_entropy_row(cfg, psi_or_rho):
    """A t = 0 row of system entropies for a state, or for a stack of states.

    Also returns the states and system marginals of both perspectives, each
    as one stack with frame i first, as in _dynamic_rows.
    """
    setup = cfg.setup
    mat = np.asarray(psi_or_rho, dtype=complex)
    rho_i = np.outer(mat, mat.conj()) if mat.ndim == 1 else mat
    rho = np.stack([rho_i, setup.perspective_change(cfg.g_i, cfg.g_j).conjugate(rho_i)])
    rho_s = partial_trace(rho, (setup.d_frame, setup.d_s), drop=0)
    row = _blank_row(0.0)
    row["SvN_s_i"], row["SvN_s_j"] = von_neumann_entropy(rho_s).tolist()
    return row, rho, rho_s


def _ising_chain(a, b, c):
    """a Z(x)1 + b 1(x)Z + c Z(x)Z on the (frame, system) qubit pair."""
    return a * kron(SIGMA_Z, ID2) + b * kron(ID2, SIGMA_Z) + c * kron(SIGMA_Z, SIGMA_Z)


# ---------------------------------------------------------------- scenarios

def _run_three_qubit_subalgebras(cfg):
    setup = cfg.setup
    coefficients, scan_coefficients = cfg.params["coefficients"], cfg.params["scan_coefficients"]

    identity_x, flip_x = _QUBIT_LABELS
    e = setup.group.identity
    proj_identity = invariant_projector(setup, identity_x, e, e, tol=cfg.tolerance)
    proj_flip = invariant_projector(setup, flip_x, e, e, tol=cfg.tolerance)
    proj_both = intersect_projectors(proj_identity, proj_flip, tol=cfg.tolerance)

    h = _ising_chain(*coefficients)
    rows, cases = [], []
    for index, (gi, gj) in enumerate([((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]):
        # The witness at (gi, gj) is the identity transported from (e, e).
        x = transport_bilocal(setup, identity_x, (e, e), (gi, gj))
        res = membership_test(setup, h, x, gi, gj, tol=cfg.tolerance)
        cases.append({"g_i": gi[0], "g_j": gj[0], "x": _bilocal_label(x),
                      "member": res.is_member, "residual": res.residual})
        row = _blank_row(float(index))
        row["in_AX"] = res.is_member
        rows.append(row)

    h_scan = _ising_chain(*scan_coefficients)
    scan = membership_scan(setup, h_scan, _PAULI_LABELS, (1,), (1,), tol=cfg.tolerance)
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
    return rows, summary


def _run_w_state(cfg):
    n = cfg.params["n_qubits"]
    setup = cfg.setup
    psi = product_state(cfg.params["amplitudes"], w_state(n - 2))
    row, rho, rho_s = _static_entropy_row(cfg, psi)
    witness = pure_state_bilocal_witness(setup, psi, cfg.g_i, cfg.g_j, tol=cfg.tolerance)
    row["in_AX"] = witness is not None
    identity_x = BilocalUnitary(ID2, np.eye(setup.d_s))
    flip_x = BilocalUnitary(ID2, kron(*([SIGMA_X] * (n - 2))))
    summary = {
        "svn_s_i": row["SvN_s_i"],
        "svn_s_j": row["SvN_s_j"],
        "renyi_half_s_j": renyi_entropy(rho_s[1], 0.5),
        "renyi_two_s_j": renyi_entropy(rho_s[1], 2.0),
        "witness_found": witness is not None,
        "identity_member": _member(cfg, rho, identity_x).is_member,
        "flip_member": _member(cfg, rho, flip_x).is_member,
    }
    if witness is not None:
        summary["witness"] = _bilocal_label(witness)
        summary["witness_residual"] = _member(cfg, rho, witness).residual
    return [row], summary


def _run_gb_states(cfg):
    setup = cfg.setup
    group = setup.group
    shift, character = cfg.params["shift"], cfg.params["character"]

    basis = {(h, k): gb_state(group, h, k) for h in group.elements for k in group.elements}
    gram = np.array([[np.vdot(u, v) for v in basis.values()] for u in basis.values()])
    orthonormal_dev = float(np.abs(gram - np.eye(len(basis))).max())
    # U_S(g) v = chi_k(g^-1) v for the basis state v of character k.
    phases = {k: np.array([[group.character(k, group.inverse(g))] for g in group.elements]) for k in group.elements}
    eigen_dev = max(float(np.abs(setup.translations @ v - phases[k] * v).max()) for (_, k), v in basis.items())

    psi = product_state(cfg.params["frame_amplitudes"], gb_state(group, shift, character))
    row, rho, _ = _static_entropy_row(cfg, psi)
    y = np.zeros((group.order, group.order), dtype=complex)
    for g in group.elements:
        y[group.index(group.inverse(g)), group.index(g)] = group.character(character, g)
    witness = BilocalUnitary(y, np.eye(setup.d_s))
    res = _member(cfg, rho, witness)
    row["in_AX"] = res.is_member
    summary = {
        "basis_orthonormality_dev": orthonormal_dev,
        "eigenrelation_dev": eigen_dev,
        "witness_member": res.is_member,
        "witness_residual": res.residual,
    }
    return [row], summary


def _run_ghz(cfg):
    variant = cfg.params["variant"]
    ghz_s = ghz_state(cfg.setup.group, 3)
    psi_g = product_state(cfg.params["frame_amplitudes"], ghz_s)
    if variant == "mixed-w":
        p_w = cfg.params["p_w"]
        psi_w = product_state(basis_state(2, 1), w_state(3))
        state, x = p_w * _pure(psi_w) + (1.0 - p_w) * _pure(psi_g), _GHZ_LABELS[1]
    else:
        state, x = (ghz_state(cfg.setup.group, 4) if variant == "global" else psi_g), _GHZ_LABELS[0]
    row, rho, rho_s = _static_entropy_row(cfg, state)
    res = _member(cfg, rho, x)
    row["in_AX"] = res.is_member
    summary = {"variant": variant}
    if variant == "separable":
        summary.update(identity_member=res.is_member, identity_residual=res.residual,
                       s_state_preserved_dev=float(np.abs(rho_s[1] - _pure(ghz_s)).max()))
    elif variant == "global":
        witness = pure_state_bilocal_witness(cfg.setup, state, cfg.g_i, cfg.g_j, tol=cfg.tolerance)
        ground, top = _pure(basis_state(8, 0)), _pure(basis_state(8, 7))
        summary.update(identity_member=res.is_member, witness_found=witness is not None,
                       s_i_even_mixture_dev=float(np.abs(rho_s[0] - 0.5 * (ground + top)).max()),
                       s_j_ground_dev=float(np.abs(rho_s[1] - ground).max()))
    else:
        (s_i, s_j), flip = rho_s, x.z
        (half_i, half_j), (two_i, two_j) = (renyi_entropy(rho_s, alpha).tolist() for alpha in (0.5, 2.0))
        summary.update(
            branch_overlap=float(abs(np.vdot(psi_w, psi_g))), flip_member=res.is_member,
            flip_residual=res.residual, conjugation_dev=float(np.abs(s_j - flip @ s_i @ flip).max()),
            svn_gap=abs(row["SvN_s_i"] - row["SvN_s_j"]),
            renyi_half_gap=abs(half_i - half_j), renyi_two_gap=abs(two_i - two_j))
    return [row], summary


# ------------------------------------------------ time-grid scenario parts
# A deviation that a summary reports as a maximum over the grid is a per-time
# column outside the rendered ones, and the summary maximises it over the rows.

def _pure(psi):
    return np.outer(psi, psi.conj())


def _max_dev(a, b):
    """max |a - b| per time, for stacks of matrices."""
    return np.abs(a - b).max(axis=(-2, -1))


def _zz_chain(cfg):
    return _ising_chain(cfg.params["field_b"], cfg.params["field_b"], 2.0 * cfg.params["coupling_j"])


def _zz_initial_state(cfg):
    if cfg.params["state"] == "plus-plus":
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        return _pure(product_state(plus, plus))
    return _pure(product_state(basis_state(2, 1), cfg.params["amplitudes"]))


def _zz_summary(cfg, h, rho0, rows):
    return {
        "field_b": cfg.params["field_b"],
        "coupling_j": cfg.params["coupling_j"],
        "in_identity_times": [row["t"] for row in rows if row["in_identity"]],
        "in_flip_times": [row["t"] for row in rows if row["in_flip"]],
    }


def _effectively_isolated_summary(cfg, h, rho0, rows):
    dims = (cfg.setup.d_frame, cfg.setup.d_s)
    h_tilde_s = mean_field_hamiltonian(split_hamiltonian(h, *dims), partial_trace(rho0, dims, drop=1),
                                       on="s")
    return {
        "conjugation_dev": max(row["conjugation_dev"] for row in rows),
        "h_tilde_s_dev_from_minus_2j_z": float(
            np.abs(h_tilde_s - (-2.0 * cfg.params["coupling_j"]) * SIGMA_Z).max()),
    }


def _relative_equilibrium_deviations(cfg, times, marginals, members):
    a, beta = cfg.params["a"], cfg.params["beta"]
    thermal, inverted = gibbs_state(SIGMA_Z, beta), gibbs_state(SIGMA_Z, -beta)
    targets = np.array([math.cos(a * t) ** 2 * thermal + math.sin(a * t) ** 2 * inverted
                        for t in times])
    return {"mixture_formula_dev": _max_dev(marginals.rho_s[1], targets),
            "stationary_thermal_dev": _max_dev(marginals.rho_s[0], thermal)}


def _negative_temperature_summary(cfg, h, rho0, rows):
    mu, beta = cfg.params["mu"], cfg.params["beta"]
    row0, _, rho_s0 = _static_entropy_row(cfg, rho0)
    report = negative_temperature_predict(cfg.setup, SIGMA_Z, beta, _EXCITED, cfg.g_j)
    summary = {
        "mu": mu,
        "stationarity_dev": hs_norm(h @ rho0 - rho0 @ h),
        "q_a": report.q_a,
        "prediction_dev": float(np.abs(rho_s0[1] - report.predicted).max()),
        "negative_beta_gibbs_dev": float(
            np.abs(rho_s0[1] - gibbs_state(mu * SIGMA_Z, -beta / mu)).max()) if mu != 0 else None,
    }
    if mu == 1.0:
        summary["conjugation_dev"] = float(np.abs(rho_s0[1] - SIGMA_X @ rho_s0[0] @ SIGMA_X).max())
        summary["entropy_gap"] = abs(row0["SvN_s_i"] - row0["SvN_s_j"])
    return summary


def _marginal_deviation(cfg, times, marginals, members):
    return {"marginal_dev": np.maximum(*(_max_dev(m[1], ID2 / 2) for m in (marginals.rho_s, marginals.rho_frame)))}


def _isolated_vs_closed_summary(cfg, h, rho0, rows):
    rates = ("qdot_s_i", "wdot_s_i", "estar_s_i", "qdot_s_j", "wdot_s_j", "estar_s_j")
    return {
        "max_abs_rate": max([0.0] + [abs(row[key]) for row in rows for key in rates]),
        "max_marginal_dev_from_maximally_mixed_j": max(row["marginal_dev"] for row in rows),
    }


def _zero_to_nonzero_summary(cfg, h, rho0, rows):
    beta = cfg.params["beta"]
    targets = [0.5 * (1.0 + math.cos(2 * t) ** 2 + math.tanh(beta) ** 2 * math.sin(2 * t) ** 2)
               for t in (row["t"] for row in rows)]
    return {
        "beta": beta,
        "purity_formula_dev": max([0.0] + [abs(row["purity_s_j"] - target)
                                           for row, target in zip(rows, targets)]),
        "max_sigma_i": max(row["sigma_i"] for row in rows),
        "max_phi_i": max(abs(row["phi_i"]) for row in rows),
        "max_phi_j": max(abs(row["phi_j"]) for row in rows),
    }


def _entropy_balance_summary(cfg, h, rho0, rows):
    # Off-grid probe times, evolved together from one eigendecomposition.
    probes = (math.pi, math.pi / 2, 0.7)
    entropies, rho, _ = _static_entropy_row(cfg, GridEvolution(h).states(rho0, probes))

    def member_at(k, x):
        return _member(cfg, rho[:, k], x).is_member

    x0, x1 = _ENTROPY_BALANCE_LABELS
    special = {
        "x0_member_at_pi": member_at(0, x0),
        "x1_member_at_half_pi": member_at(1, x1),
        "x0_member_at_0p7": member_at(2, x0),
        "x1_member_at_0p7": member_at(2, x1),
    }
    s_i, s_j = entropies["SvN_s_i"], entropies["SvN_s_j"]
    delta = [{"t": t, "svn_s_i": float(s_i[k]), "svn_s_j": float(s_j[k])}
             for k, t in enumerate(probes)]
    return {"memberships": special, "entropy_probes": delta}


def _run_grid(cfg, entry):
    """Rows and summary of a time-grid scenario, from the parts of its table entry."""
    h = entry.hamiltonian(cfg) if cfg.hamiltonian is None else cfg.hamiltonian
    rho0 = entry.initial_state(cfg)
    extras = entry.extras and functools.partial(entry.extras, cfg)
    rows = _dynamic_rows(cfg, h, rho0, entry.candidates, extras)
    return rows, entry.summary(cfg, h, rho0, rows)


# ----------------------------------------------------------------- registry

def _qubit_pair(name, group, d_s, params):
    _require(group.order == 2 and d_s == 2, "group",
             f"scenario {name!r} needs one qubit frame pair and a qubit system")


def _w_state_shape(name, group, d_s, params):
    n = _as_positive_int(params["n_qubits"], "params.n_qubits", minimum=3)
    # n - 2 <= d_s, which the budget bounds, keeps 2^(n - 2) small.
    _require(group.order == 2 and n - 2 <= d_s and d_s == 2 ** (n - 2), "params.n_qubits",
             f"representation dimension {d_s} does not match {n} qubits")


def _ghz_shape(name, group, d_s, params):
    variant = params["variant"]
    _require(variant in ("separable", "global", "mixed-w"), "params.variant",
             f"expected separable, global, or mixed-w, got {variant!r}")
    _require(group.order == 2 and d_s == 8, "rep", "scenario needs a qubit group with a three-qubit system")
    _require(0.0 <= params["p_w"] <= 1.0, "params.p_w", "expected a probability")


def _three_qubit_shape(name, group, d_s, params):
    """The qubit pair, then each [A, B, C] of _ising_chain, as floats."""
    _qubit_pair(name, group, d_s, params)
    for key in ("coefficients", "scan_coefficients"):
        raw, path = params[key], f"params.{key}"
        _require(isinstance(raw, (list, tuple)) and len(raw) == 3, path, "expected [A, B, C]")
        params[key] = [_as_float(c, path) for c in raw]


def _gb_states_shape(name, group, d_s, params):
    _require(d_s == group.order ** 2, "rep", "scenario needs the system to carry two regular factors")
    for key in ("shift", "character"):
        params[key] = _build_orientation(group, params[key], f"params.{key}")


def _zz_shape(name, group, d_s, params):
    _qubit_pair(name, group, d_s, params)
    state = params["state"]
    _require(state in ("plus-plus", "one-ab"), "params.state", f"expected plus-plus or one-ab, got {state!r}")


def _isolated_vs_closed_shape(name, group, d_s, params):
    """The qubit pair, then params.state as frame j's state vector: the Bell state or four amplitudes."""
    _qubit_pair(name, group, d_s, params)
    state = params["state"]
    psi_j = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0) if state == "bell" else (
        None if isinstance(state, str) else _as_complex_vector(state, "params.state"))
    _require(psi_j is not None and psi_j.size == 4, "params.state", 'expected "bell" or four amplitudes')
    params["state"] = psi_j


@dataclass(frozen=True)
class Scenario:
    """One catalog entry: its name, description and config defaults, then how it runs.

    requires(name, group, d_s, params) refuses a config whose (|G|, d_s) the
    scenario cannot run on, or whose params it cannot read, and puts each
    parameter it parses back into params in parsed form; parse_config calls
    it before the setup exists, so a runner reads parsed values only.  The
    default asks for a qubit frame pair and a qubit system.  A
    static scenario sets run(cfg) -> (rows, summary).  _run_grid runs a
    time-grid scenario from the other parts: hamiltonian(cfg), the default H
    (a config "hamiltonian" replaces it); initial_state(cfg), rho0 in frame
    i's perspective; candidates, the labels X whose membership fills in_AX;
    extras(cfg, times, marginals, members), per-time columns from a run's
    StateMarginals, both perspectives in one stack with frame i first, and
    the candidates' verdicts;
    summary(cfg, h, rho0, rows); and extra_fields, the extras JSON renders
    after the shared columns.
    """

    name: str
    description: str
    defaults: dict
    requires: object = field(repr=False, default=_qubit_pair)
    run: object = field(repr=False, default=None)
    hamiltonian: object = field(repr=False, default=None)
    initial_state: object = field(repr=False, default=None)
    candidates: tuple = field(repr=False, default=())
    extras: object = field(repr=False, default=None)
    summary: object = field(repr=False, default=None)
    extra_fields: tuple = ()


_BASE_DEFAULTS = {
    "group": {"cyclic": [2]},
    "rep": "regular",
    "orientations": {"g_i": [0], "g_j": [0]},
    "prescription": {"prescription": "split_alpha", "alpha_s": 0.5},
    "time_grid": {"start": 0.0, "stop": 2 * math.pi, "points": 50},
    "params": {},
}

_SQRT_HALF = 1.0 / math.sqrt(2.0)
# Labels are built once, so each keeps its conjugation gather across runs.
_QUBIT_LABELS = (BilocalUnitary(ID2, ID2), BilocalUnitary(ID2, SIGMA_X))
_PAULI_LABELS = tuple(BilocalUnitary(PAULI[a], PAULI[b]) for a in "IXYZ" for b in "IXYZ")
_ENTROPY_BALANCE_LABELS = (BilocalUnitary(SIGMA_X, ID2), BilocalUnitary(SIGMA_X, SIGMA_X))
_GHZ_LABELS = (BilocalUnitary(ID2, np.eye(8)), BilocalUnitary(ID2, kron(SIGMA_X, SIGMA_X, SIGMA_X)))
_EXCITED = np.diag([0.0, 1.0]).astype(complex)

SCENARIOS = {scenario.name: scenario for scenario in (
    Scenario(
        "three-qubit-subalgebras",
        "Invariant-subalgebra dimensions and an Ising-chain membership table "
        "for two qubit frames and one system qubit.",
        {"time_grid": {"start": 0.0, "stop": 3.0, "points": 4},
         "params": {"coefficients": [1.0, 1.0, 1.0],
                    "scan_coefficients": [1.0, 1.0, 2.0]}},
        requires=_three_qubit_shape,
        run=_run_three_qubit_subalgebras),
    Scenario(
        "w-state",
        "W-type superposition: subsystem entropies and bilocal witnesses "
        "in both frame perspectives.",
        {"rep": {"tensor_power": 3},
         "time_grid": {"start": 0.0, "stop": 0.0, "points": 1},
         "params": {"n_qubits": 5, "amplitudes": [_SQRT_HALF, _SQRT_HALF]}},
        requires=_w_state_shape,
        run=_run_w_state),
    Scenario(
        "gb-states",
        "Relative-shift/character basis states over a cyclic group: "
        "eigenrelations and an exact bilocal witness.",
        {"group": {"cyclic": [3]},
         "rep": {"tensor_power": 2},
         "time_grid": {"start": 0.0, "stop": 0.0, "points": 1},
         "params": {"shift": [1], "character": [2],
                    "frame_amplitudes": [[0.3, 0.1], [-0.5, 0.0], [0.0, 0.8]]}},
        requires=_gb_states_shape,
        run=_run_gb_states),
    Scenario(
        "ghz",
        "GHZ chain in separable, globally entangled, and mixed variants; "
        "witness existence and entropies.",
        {"rep": {"tensor_power": 3},
         "time_grid": {"start": 0.0, "stop": 0.0, "points": 1},
         "params": {"variant": "separable",
                    "frame_amplitudes": [[0.28, -0.4], [0.87, 0.0]],
                    "p_w": 0.3}},
        requires=_ghz_shape,
        run=_run_ghz),
    Scenario(
        "zz-oscillation",
        "ZZ-coupled qubit pair oscillating through two invariant "
        "subalgebras; full rate table.",
        {"time_grid": {"start": 0.0, "stop": 2 * math.pi, "points": 61},
         "params": {"field_b": 1.0, "coupling_j": 1.0, "state": "plus-plus",
                    "amplitudes": [1.0 / math.sqrt(3.0), math.sqrt(2.0 / 3.0)]}},
        requires=_zz_shape,
        hamiltonian=_zz_chain,
        initial_state=_zz_initial_state,
        candidates=_QUBIT_LABELS,
        extras=lambda cfg, times, marginals, members: {"in_identity": members[0], "in_flip": members[1]},
        summary=_zz_summary),
    Scenario(
        "effectively-isolated",
        "Interacting chain whose system marginals in the two perspectives "
        "stay unitarily related for all times.",
        {"params": {"field_b": 0.7, "coupling_j": 0.4, "amplitudes": [0.6, 0.8]}},
        hamiltonian=_zz_chain,
        initial_state=lambda cfg: _pure(product_state(basis_state(2, 1), cfg.params["amplitudes"])),
        candidates=_QUBIT_LABELS[1:],
        extras=lambda cfg, times, marginals, members: {"conjugation_dev": _max_dev(
            marginals.rho_s[1], SIGMA_X @ marginals.rho_s[0] @ SIGMA_X)},
        summary=_effectively_isolated_summary),
    Scenario(
        "relative-equilibrium",
        "System stationary and thermal for one frame while the other sees "
        "an oscillating thermal mixture.",
        {"params": {"a": 1.0, "b": 1.0, "beta": 1.0}},
        hamiltonian=lambda cfg: (cfg.params["a"] * kron(SIGMA_X, ID2)
                                 + cfg.params["b"] * kron(ID2, SIGMA_Z)),
        initial_state=lambda cfg: kron(np.diag([1.0, 0.0]).astype(complex),
                                       gibbs_state(SIGMA_Z, cfg.params["beta"])),
        extras=_relative_equilibrium_deviations,
        summary=lambda cfg, h, rho0, rows: {
            key: max(row[key] for row in rows)
            for key in ("mixture_formula_dev", "stationary_thermal_dev")}),
    Scenario(
        "negative-temperature",
        "Stationary product state read as a positive-temperature Gibbs state "
        "by one frame and a negative-temperature one by the other.",
        {"time_grid": {"start": 0.0, "stop": 1.0, "points": 5},
         "params": {"mu": 2.0, "nu": 1.0, "beta": 1.0}},
        hamiltonian=lambda cfg: (cfg.params["nu"] * kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_Z)
                                 + cfg.params["mu"] * kron(SIGMA_Z, SIGMA_Z)),
        initial_state=lambda cfg: kron(_EXCITED, gibbs_state(SIGMA_Z, cfg.params["beta"])),
        extras=lambda cfg, times, marginals, members: dict(zip(("rho_S_R1", "rho_S_R2"), marginals.rho_s)),
        summary=_negative_temperature_summary,
        extra_fields=("rho_S_R1", "rho_S_R2")),
    Scenario(
        "isolated-vs-closed",
        "X(x)1 + 1(x)X, free for one frame and interacting for the other, "
        "conserves every effective energy for any state; the Bell state "
        "leaves S pure for frame i and maximally mixed for frame j.",
        {"params": {"state": "bell"}},
        requires=_isolated_vs_closed_shape,
        hamiltonian=lambda cfg: kron(SIGMA_X, ID2) + kron(ID2, SIGMA_X),
        initial_state=lambda cfg: _pure(cfg.setup.perspective_change(cfg.g_i, cfg.g_j).adjoint.left(
            cfg.params["state"][:, None])[:, 0]),
        extras=_marginal_deviation,
        summary=_isolated_vs_closed_summary),
    Scenario(
        "zero-to-nonzero-entropy",
        "Zero entropy production for one frame, periodic production for the "
        "other, with a closed-form system purity.",
        {"params": {"beta": 1.0}},
        hamiltonian=lambda cfg: kron(SIGMA_Z, ID2) + kron(ID2, SIGMA_Z),
        initial_state=lambda cfg: kron(gibbs_state(SIGMA_Z, cfg.params["beta"]),
                                       _pure(np.array([1.0, 1.0]) / math.sqrt(2.0))),
        extras=lambda cfg, times, marginals, members: dict(zip(
            ("purity_s_i", "purity_s_j"), purity(marginals.rho_s))),
        summary=_zero_to_nonzero_summary,
        extra_fields=("purity_s_i", "purity_s_j")),
    Scenario(
        "entropy-balance-oscillation",
        "Entropy balances of the two perspectives coinciding at special "
        "times and differing between them.",
        {"orientations": {"g_i": [0], "g_j": [1]},
         "time_grid": {"start": 0.0, "stop": 2 * math.pi, "points": 41}},
        hamiltonian=lambda cfg: kron(SIGMA_X, ID2) + kron(ID2, SIGMA_X),
        initial_state=lambda cfg: _pure(product_state(basis_state(2, 1), basis_state(2, 0))),
        candidates=_ENTROPY_BALANCE_LABELS,
        summary=_entropy_balance_summary),
)}


def list_scenarios():
    """Catalog of built-in scenarios as (name, description) pairs."""
    return [(s.name, s.description) for s in SCENARIOS.values()]


def run_scenario(source):
    """Parse, run, and collect one scenario into a ScenarioResult."""
    cfg = source if isinstance(source, ScenarioConfig) else parse_config(source)
    entry = SCENARIOS[cfg.scenario]
    rows, summary = entry.run(cfg) if entry.run else _run_grid(cfg, entry)
    return ScenarioResult(name=cfg.scenario, config=cfg.raw, rows=rows, summary=summary,
                          extra_fields=entry.extra_fields)
