import itertools
import json
import math
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from qrf_lab import frames, scenarios, states
from qrf_lab.dynamics import GridEvolution, block_length
from qrf_lab.frames import PerspectiveChange
from qrf_lab.operators import PAULI, SIGMA_X, SIGMA_Z, kron, partial_trace
from qrf_lab.scenarios import (
    COLUMNS,
    ConfigError,
    ScenarioResult,
    list_scenarios,
    parse_config,
    render,
    run_scenario,
)
from qrf_lab.states import von_neumann_entropy
from qrf_lab.thermo import Prescription

from property_suites import entropy_production_and_flow, per_perspective_rows, per_perspective_static_row

EYE = [[1.0, 0.0], [0.0, 1.0]]
FLIP = [[0.0, 1.0], [1.0, 0.0]]


def test_the_size_budget_admits_d_p_2048_and_refuses_the_next_power(monkeypatch):
    """Z2 with tensor_power 10 has d_p = 2048, 64 MiB per complex matrix: the largest admitted,
    far above the d_p = 125 of Z5 with tensor_power 2, the largest the tests and README use.
    Twelve qubits give the w-state the d_s = 1024 that this rep carries."""
    monkeypatch.setattr(frames.FrameSetup, "from_rep_config", lambda group, rep: SimpleNamespace(group=group, rep=rep))
    base = {"scenario": "w-state", "group": {"cyclic": [2]}, "params": {"n_qubits": 12}}
    assert parse_config(dict(base, rep={"tensor_power": 10})).setup.rep == {"tensor_power": 10}
    with pytest.raises(ConfigError, match="perspective dimension 4096 needs 268435456 bytes"):
        parse_config(dict(base, rep={"tensor_power": 11}))


def test_the_w_state_peaks_below_eight_budget_matrices():
    """w-state at d_p = 512, parsed, run and rendered, peaks at 7.5 complex d_p x d_p matrices under
    tracemalloc, as at the budget's d_p = 2048; the bound is 8, as u is applied through its structure."""
    raw = {"scenario": "w-state", "rep": {"tensor_power": 8}, "params": {"n_qubits": 10}}
    d_p = 512
    tracemalloc.start()
    try:
        render(run_scenario(parse_config(raw)), "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 16 * d_p ** 2


def _refuse_to_allocate(*args, **kwargs):
    raise AssertionError("the grid was allocated")


def test_the_grid_budget_admits_32768_points_and_refuses_the_next(monkeypatch):
    """8 KiB per point, above the 6.9 KB measured: 32768 points pass, and a larger count is
    refused from the config alone, before the grid or a row exists."""
    base = {"scenario": "zz-oscillation"}
    assert parse_config(dict(base, time_grid={"points": 32768})).time_grid.shape == (32768,)
    monkeypatch.setattr(np, "linspace", _refuse_to_allocate)
    for points in (32769, 10 ** 12):
        with pytest.raises(ConfigError, match=f"time_grid.points: {points} points need an estimated "
                                              f"{8192 * points} bytes"):
            parse_config(dict(base, time_grid={"points": points}))


def test_rep_matrices_refuse_an_oversize_group_before_listing_its_elements():
    """Z50000 with 1 x 1 matrices has d_p = 50000; its element list (several MB) is never
    built, and a key out of range is refused by one check against the order."""
    rep = {"matrices": {"0": [[1.0]], "49999": [[1.0]]}}
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="rep.matrices: perspective dimension 50000"):
            parse_config({"scenario": "w-state", "group": {"cyclic": [50000]}, "rep": rep})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    for key in ("2", "-1", "one"):
        with pytest.raises(ConfigError, match=f"rep.matrices.{key}: key must be a valid element index"):
            parse_config({"scenario": "w-state", "rep": {"matrices": {"0": EYE, key: FLIP}}})


def test_defaults_fill_in():
    cfg = parse_config({"scenario": "zz-oscillation"})
    assert cfg.scenario == "zz-oscillation"
    assert cfg.setup.group.order == 2
    assert cfg.setup.d_s == 2
    assert cfg.g_i == (0,) and cfg.g_j == (0,)
    assert cfg.tolerance == 1e-9
    assert cfg.prescription.alpha_s == 0.5
    assert cfg.time_grid.shape == (61,)
    assert cfg.time_grid[0] == 0.0
    assert np.isclose(cfg.time_grid[-1], 2.0 * math.pi)


def test_config_accepts_json_text_and_files(tmp_path):
    text = json.dumps({"scenario": "ghz", "tolerance": 1e-7})
    assert parse_config(text).tolerance == 1e-7
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert parse_config(path).tolerance == 1e-7
    assert parse_config(str(path)).tolerance == 1e-7


def test_group_config_round_trip():
    # gb-states runs on any group; its system carries two regular factors, and its shift and character
    # are group elements, so parse_config refuses the one-component defaults on Z2 x Z3.
    config = {"scenario": "gb-states", "group": {"cyclic": [2, 3]},
              "orientations": {"g_i": [1, 2], "g_j": [0, 0]},
              "params": {"frame_amplitudes": [1, 0, 0, 0, 0, 0]}}
    with pytest.raises(ConfigError, match=r"^params\.shift: expected 2 integer components$"):
        parse_config(config)
    cfg = parse_config({**config, "params": {**config["params"], "shift": [1, 2], "character": [0, 1]}})
    assert cfg.setup.group.order == 6
    assert cfg.setup.group.factors == (2, 3)
    assert cfg.g_i == (1, 2)
    assert (cfg.params["shift"], cfg.params["character"]) == ((1, 2), (0, 1))


def test_rep_override_replaces_scenario_default():
    # The w-state default rep is a tensor power; an explicit matrix rep
    # must replace it outright rather than merge with it.
    cfg = parse_config({
        "scenario": "w-state",
        "rep": {"matrices": {"0": EYE, "1": FLIP}},
        "params": {"n_qubits": 3},
    })
    assert cfg.setup.d_s == 2
    summary = run_scenario(cfg).summary
    assert np.isclose(summary["svn_s_j"], math.log(2.0), atol=1e-9)


@pytest.mark.parametrize("config, path_fragment", [
    ({}, "a scenario name is required"),
    ({"scenario": "nope"}, "unknown scenario"),
    ({"scenario": "ghz", "extra": 1}, "unknown configuration key"),
    ({"scenario": "ghz", "params": {"bogus": 1}}, "params.bogus"),
    ({"scenario": "ghz", "group": {"cyclic": [0]}}, "group.cyclic"),
    ({"scenario": "ghz", "orientations": {"gi": [0]}}, "orientations"),
    ({"scenario": "ghz", "orientations": {"g_i": [5], "g_j": [0]}}, "orientations.g_i"),
    ({"scenario": "ghz", "tolerance": -1.0}, "tolerance"),
    ({"scenario": "ghz", "time_grid": {"start": 0, "stop": 1, "points": 0}},
     "time_grid.points"),
    ({"scenario": "ghz", "time_grid": {"start": 1.0, "stop": 0.0, "points": 3}},
     "grid must be strictly increasing"),
    ({"scenario": "zz-oscillation", "hamiltonian": {"pieces": []}}, "hamiltonian"),
    ({"scenario": "zz-oscillation",
      "hamiltonian": {"terms": [{"coefficient": 1.0, "factors": ["z", "q"]}]}},
     "hamiltonian.terms[0].factors[1]"),
    ({"scenario": "three-qubit-subalgebras",
      "rep": {"matrices": {"0": EYE, "1": [[0.0, 2.0], [2.0, 0.0]]}}},
     "not unitary"),
    ({"scenario": "relative-equilibrium", "params": {"beta": math.nan}}, "params.beta"),
    ({"scenario": "zz-oscillation", "time_grid": {"start": 0.0, "stop": math.inf, "points": 3}},
     "time_grid.stop"),
    ({"scenario": "zz-oscillation",
      "hamiltonian": {"terms": [{"coefficient": -math.inf, "factors": ["z", "z"]}]}},
     "hamiltonian.terms[0].coefficient"),
    ({"scenario": "effectively-isolated", "params": {"amplitudes": [0.6, [0.8, math.nan]]}},
     "params.amplitudes[1]"),
    ({"scenario": "w-state", "params": {"amplitudes": [True, False]}}, "params.amplitudes[0]"),
    ({"scenario": "ghz", "orientations": {"g_i": [0.7], "g_j": [0]}}, "orientations.g_i[0]"),
    ({"scenario": "ghz", "orientations": {"g_i": [0], "g_j": [True]}}, "orientations.g_j[0]"),
    ({"scenario": "gb-states", "params": {"shift": [1.0]}}, "params.shift[0]"),
    ({"scenario": "gb-states", "params": {"character": [True]}}, "params.character[0]"),
    ({"scenario": "negative-temperature", "prescription": {"alpha_s": math.nan}}, "prescription.alpha_s"),
    ({"scenario": "negative-temperature", "prescription": {"alpha_s": math.inf}}, "prescription.alpha_s"),
    ({"scenario": "negative-temperature", "prescription": {"alpha_s": True}}, "prescription.alpha_s"),
    ({"scenario": "negative-temperature", "prescription": {"alpha_s": "0.3"}}, "prescription.alpha_s"),
    # alpha_s is checked whatever the kind, though commuting_part does not read it.
    ({"scenario": "negative-temperature",
      "prescription": {"prescription": "commuting_part", "alpha_s": None}}, "prescription.alpha_s"),
    ({"scenario": "negative-temperature", "prescription": 5}, "prescription"),
    ({"scenario": "negative-temperature", "prescription": {"alpha": 0.9}}, "prescription.alpha"),
    ({"scenario": "three-qubit-subalgebras", "params": {"coefficients": 3}}, "params.coefficients"),
    ({"scenario": "three-qubit-subalgebras", "params": {"scan_coefficients": 3}},
     "params.scan_coefficients"),
    # A static scenario reads no hamiltonian, so it refuses one before parsing its terms.
    *[({"scenario": name, "hamiltonian": {"terms": [{"coefficient": 1.0, "factors": ["z", "z", "z", "z"]}]}},
       f"hamiltonian: scenario {name!r} reads no hamiltonian")
      for name in ("w-state", "gb-states", "ghz", "three-qubit-subalgebras")],
    ({"scenario": "isolated-vs-closed", "params": {"state": "bel"}},
     'params.state: expected "bell" or four amplitudes'),
    ({"scenario": "zz-oscillation", "params": {"state": "plus"}},
     "params.state: expected plus-plus or one-ab, got 'plus'"),
    ({"scenario": "three-qubit-subalgebras", "params": {"coefficients": [1.0, 2.0]}},
     "params.coefficients: expected [A, B, C]"),
    ({"scenario": "three-qubit-subalgebras", "params": {"scan_coefficients": "x"}},
     "params.scan_coefficients: expected [A, B, C]"),
    ({"scenario": "gb-states", "params": {"shift": [7]}}, "params.shift: element (7,) out of range"),
    ({"scenario": "gb-states", "params": {"character": "a"}}, "params.character: expected 1 integer components"),
], ids=lambda value: value if isinstance(value, str) else "config")
def test_rejected_configs_name_the_offender(monkeypatch, config, path_fragment):
    # parse_config refuses every parameter, those that one scenario alone reads included, before it builds
    # a regular or tensor-power setup; only rep.matrices' own checks need the FrameSetup they build.
    monkeypatch.setattr(frames.FrameSetup, "from_rep_config", lambda *args: pytest.fail("a setup was built"))
    with pytest.raises(ConfigError) as err:
        parse_config(config)
    assert path_fragment in str(err.value)


FLOAT_PARAMS = [(name, key) for name, entry in scenarios.SCENARIOS.items()
                for key, value in entry.defaults.get("params", {}).items() if isinstance(value, float)]


@pytest.mark.parametrize("name, key", FLOAT_PARAMS, ids=lambda value: value)
def test_float_parameters_are_validated_by_parse_config(name, key):
    """A parameter with a float default is checked once, in parse_config, under its params path."""
    with pytest.raises(ConfigError) as err:
        parse_config({"scenario": name, "params": {key: "1.5"}})
    assert (err.value.path, err.value.reason) == (f"params.{key}", "expected a finite number, got '1.5'")
    cfg = parse_config({"scenario": name, "params": {key: 1}})
    assert cfg.params[key] == 1.0 and isinstance(cfg.params[key], float)
    assert cfg.raw["params"][key] == 1 and isinstance(cfg.raw["params"][key], int)


AMPLITUDE_PARAMS = [(name, key) for name, entry in scenarios.SCENARIOS.items()
                    for key in entry.defaults.get("params", {}) if key in ("amplitudes", "frame_amplitudes")]


@pytest.mark.parametrize("name, key", AMPLITUDE_PARAMS, ids=lambda value: value)
def test_amplitude_lists_are_validated_by_parse_config(name, key):
    """An amplitude list is checked once, in parse_config, for its entries and its count."""
    given = scenarios.SCENARIOS[name].defaults["params"][key]
    for bad, reason in (("junk", "expected a non-empty list"),
                        (given + [1.0], f"expected {'two' if key == 'amplitudes' else len(given)} amplitudes")):
        with pytest.raises(ConfigError) as err:
            parse_config({"scenario": name, "params": {key: bad}})
        assert (err.value.path, err.value.reason) == (f"params.{key}", reason)
    doubled = (2 * np.asarray(given)).tolist()
    cfg = parse_config({"scenario": name, "params": {key: doubled}})
    assert np.isclose(np.linalg.norm(cfg.params[key]), 1.0)  # normalised once, here
    assert cfg.raw["params"][key] == doubled


def test_ghz_p_w_is_rejected_in_every_variant():
    # The separable and global variants do not read p_w, but parse_config checks it all the same.
    for variant in ("separable", "global", "mixed-w"):
        with pytest.raises(ConfigError, match=r"params\.p_w: expected a finite number"):
            run_scenario({"scenario": "ghz", "params": {"variant": variant, "p_w": None}})
        for p_w in (-0.25, 1.5):
            with pytest.raises(ConfigError, match=r"^params\.p_w: expected a probability$"):
                parse_config({"scenario": "ghz", "params": {"variant": variant, "p_w": p_w}})
        assert parse_config({"scenario": "ghz", "params": {"variant": variant, "p_w": 1}}).params["p_w"] == 1.0


def test_ghz_mixed_w_takes_each_renyi_gap_from_one_call(monkeypatch):
    """The mixed-w summary takes both system marginals' Renyi entropies of each order from one call on
    their pair, and each gap is the float that the per-marginal entropies give, bit for bit."""
    seen, renyi = [], scenarios.renyi_entropy
    monkeypatch.setattr(scenarios, "renyi_entropy", lambda rho, alpha: seen.append((rho, alpha)) or renyi(rho, alpha))
    summary = run_scenario({"scenario": "ghz", "params": {"variant": "mixed-w", "p_w": 0.3}}).summary
    assert [(np.shape(rho)[0], alpha) for rho, alpha in seen] == [(2, 0.5), (2, 2.0)]
    for (rho_s, alpha), key in zip(seen, ("renyi_half_gap", "renyi_two_gap")):
        expected = abs(renyi(rho_s[0], alpha) - renyi(rho_s[1], alpha))
        assert type(summary[key]) is float and summary[key] == expected, key


def test_unknown_scenario_lists_valid_names():
    with pytest.raises(ConfigError) as err:
        parse_config({"scenario": "nope"})
    message = str(err.value)
    assert "valid names:" in message
    assert "w-state" in message and "zz-oscillation" in message


def test_invalid_json_text_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("{broken")
    assert "invalid JSON" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("[1, 2]")


def test_tolerance_env_var(monkeypatch):
    """The tolerance comes from the config alone; the environment does not change it."""
    for value in ("0.001", "abc"):
        monkeypatch.setenv("QRF_LAB_TOL", value)
        assert parse_config({"scenario": "ghz"}).tolerance == scenarios.DEFAULT_TOLERANCE
        assert parse_config({"scenario": "ghz", "tolerance": 0.25}).tolerance == 0.25


def test_catalog_names_and_descriptions():
    catalog = list_scenarios()
    assert len(catalog) == 11
    assert [name for name, _ in catalog] == list(scenarios.SCENARIOS)
    assert all(description for _, description in catalog)


@pytest.mark.parametrize("name", sorted(scenarios.SCENARIOS))
def test_every_scenario_runs_and_renders(name):
    result = run_scenario({"scenario": name})
    assert result.name == name
    assert len(result.rows) >= 1
    assert result.summary
    lines = render(result, "csv").strip().split("\n")
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 1 + len(result.rows)
    document = json.loads(render(result, "json"))
    assert set(document) == {"scenario", "metadata", "summary", "rows"}
    assert document["scenario"] == name
    assert document["metadata"]["columns"] == list(COLUMNS) + list(result.extra_fields)
    assert len(document["rows"]) == len(result.rows)


def test_output_is_deterministic():
    source = {"scenario": "zz-oscillation",
              "time_grid": {"start": 0.0, "stop": 1.0, "points": 7}}
    assert render(run_scenario(source), "csv") == render(run_scenario(source), "csv")
    assert render(run_scenario(source), "json") == render(run_scenario(source), "json")


def test_csv_cell_formatting():
    row = scenarios._blank_row(0.25)
    row["E_s_i"] = 1.0 / 3.0
    row["sigma_i"] = math.inf
    row["in_AX"] = True
    result = ScenarioResult(name="x", config={}, rows=[row], summary={})
    lines = render(result, "csv").strip().split("\n")
    cells = dict(zip(COLUMNS, lines[1].split(",")))
    assert cells["t"] == "0.25"
    assert cells["E_s_i"] == "0.33333333333333331"
    assert cells["sigma_i"] == "inf"
    assert cells["in_AX"] == "1"
    assert cells["E_s_j"] == ""


def test_json_handles_inf_and_complex():
    row = scenarios._blank_row(0.0)
    row["sigma_i"] = math.inf
    result = ScenarioResult(name="x", config={}, rows=[row],
                            summary={"z": 1.0 + 2.0j})
    document = json.loads(render(result, "json"))
    assert document["rows"][0]["sigma_i"] == "inf"
    assert document["summary"]["z"] == {"re": 1.0, "im": 2.0}


def test_unknown_render_format_rejected():
    result = run_scenario({"scenario": "ghz"})
    with pytest.raises(ValueError):
        render(result, "yaml")


def test_density_matrix_fields_appear_only_in_json():
    result = run_scenario({"scenario": "negative-temperature"})
    assert result.extra_fields == ("rho_S_R1", "rho_S_R2")
    header = render(result, "csv").split("\n", 1)[0]
    assert "rho_S_R1" not in header
    first = json.loads(render(result, "json"))["rows"][0]
    assert np.asarray(first["rho_S_R1"]["re"]).shape == (2, 2)


def test_three_qubit_summary_values():
    summary = run_scenario({"scenario": "three-qubit-subalgebras"}).summary
    assert summary["dim_identity"] == 10
    assert summary["dim_flip"] == 10
    assert summary["dim_intersection"] == 6
    assert [case["member"] for case in summary["cases"]] == [True] * 4
    assert summary["scan"]["member_found"] is False
    assert np.isclose(summary["scan"]["min_residual"], 2.8284271247461903)


def test_entropy_balance_summary_values():
    summary = run_scenario({"scenario": "entropy-balance-oscillation"}).summary
    memberships = summary["memberships"]
    assert memberships["x0_member_at_pi"] is True
    assert memberships["x1_member_at_half_pi"] is True
    assert memberships["x0_member_at_0p7"] is False
    assert memberships["x1_member_at_0p7"] is False
    by_time = {round(p["t"], 6): p for p in summary["entropy_probes"]}
    assert abs(by_time[round(math.pi, 6)]["svn_s_i"]) < 1e-12
    assert abs(by_time[round(math.pi, 6)]["svn_s_j"]) < 1e-12
    assert np.isclose(by_time[0.7]["svn_s_j"], 0.6786324023685926)


@pytest.mark.parametrize("name", ["zz-oscillation", "entropy-balance-oscillation"])
def test_each_state_is_conjugated_once(monkeypatch, name):
    """The initial and every evolved state reach frame j through one conjugation by u.

    States are counted by value, so equal states (a probe time on the grid,
    or t = 0 with an exact eigenbasis) are expected as often as they occur.
    """
    initial, evolved, conjugated = set(), Counter(), Counter()
    states, blocks, conjugate = GridEvolution.states, GridEvolution.blocks, PerspectiveChange.conjugate

    def record_states(self, rho0, times):
        out = states(self, rho0, times)
        initial.add(np.asarray(rho0, dtype=complex).tobytes())
        evolved.update(rho.tobytes() for rho in out)
        return out

    def record_blocks(self, rho0, times):
        initial.add(np.asarray(rho0, dtype=complex).tobytes())
        for block, out in blocks(self, rho0, times):
            evolved.update(rho.tobytes() for rho in out)
            yield block, out

    def record_conjugate(self, ops):
        ops = np.asarray(ops, dtype=complex)
        conjugated.update(m.tobytes() for m in ops.reshape((-1,) + ops.shape[-2:]))
        return conjugate(self, ops)

    # blocks forms its states without calling states, so both are recorded.
    monkeypatch.setattr(GridEvolution, "states", record_states)
    monkeypatch.setattr(GridEvolution, "blocks", record_blocks)
    monkeypatch.setattr(PerspectiveChange, "conjugate", record_conjugate)
    result = run_scenario({"scenario": name})
    assert sum(evolved.values()) >= len(result.rows)
    expected = evolved + Counter(initial)
    assert [conjugated[key] - n for key, n in expected.items()] == [0] * len(expected)


# The writers before the single-walk JSON writer: every value through
# jsonify, then the stdlib encoder; every CSV cell through format_number.
def jsonify_oracle(value):
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
        return {str(k): jsonify_oracle(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify_oracle(v) for v in value]
    return str(value)


def json_oracle(result):
    columns = list(COLUMNS) + list(result.extra_fields)
    document = {
        "scenario": result.name,
        "metadata": {
            "config": jsonify_oracle(result.config),
            "library_version": scenarios.VERSION,
            "columns": columns,
        },
        "summary": jsonify_oracle(result.summary),
        "rows": [{c: jsonify_oracle(row.get(c)) for c in columns} for row in result.rows],
    }
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def csv_oracle(result):
    def cell(value):
        if value is None:
            return ""
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        if isinstance(value, float) and math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(float(value), ".17g")

    lines = [",".join(COLUMNS)]
    lines += [",".join(cell(row.get(c)) for c in COLUMNS) for row in result.rows]
    return "".join(line + "\n" for line in lines)


DEFAULT_SOURCES = [{"scenario": name} for name in scenarios.SCENARIOS] + [
    {"scenario": "ghz", "params": {"variant": variant}} for variant in ("global", "mixed-w")]


@pytest.mark.parametrize("source", DEFAULT_SOURCES, ids=lambda s: "-".join(map(str, s.values())))
def test_writers_match_the_jsonify_and_stdlib_oracle(source):
    result = run_scenario(source)
    assert render(result, "json") == json_oracle(result)
    assert render(result, "csv") == csv_oracle(result)


def odd_result():
    """A ScenarioResult holding every kind of value the writers special-case."""
    row = scenarios._blank_row(0.5)
    row.update(E_s_i=math.inf, E_s_j=-math.inf, E_frame_i=np.float64(1.0 / 3.0),
               E_frame_j=np.int64(-7), E_int_i=12, sigma_i=True, phi_i=False,
               in_AX=np.bool_(True), phi_j=np.float32(0.1), SvN_s_i=-0.0)
    row.update(rho=np.array([[1.0 + 2.0j, -0.5j], [0.5j, 3.0]]), vec=np.array([0.25, -1.0e-300]),
               z=1.5 - 2.0j, zn=np.complex128(0.5 + 0.25j), flags=np.array([True, False]))
    summary = {
        "inf": math.inf, "minus_inf": -math.inf, "none": None, "flag": True,
        "np_flag": np.bool_(False), "f64": np.float64(2.0 / 3.0), "i64": np.int64(-4),
        "z": 1.0 + 2.0j, "real": np.eye(2), "cplx": np.array([1j, 2.0]), "scalar_array": np.array(2.5),
        "ints": np.arange(3), "empty_array": np.zeros((2, 0)), "empty_list": [], "empty_dict": {},
        "text": 'Zürich → ∞ "q"\n\t\\', 1: "int key", (2, 3): "tuple key",
        0.5: [1, (2, 3), {"x": None}], None: "none key", "1": "collides with the int key",
        "obj": Prescription.split_alpha(), "nested": {"deep": [[], {}, [np.float32(0.1)], ()]},
        "big": 2 ** 70, "tiny": 5e-324, "huge": 1.7976931348623157e308,
    }
    return ScenarioResult(name="odd é", config={"k": [1, 2.5], "s": "v"},
                          rows=[row, scenarios._blank_row(1.0)], summary=summary,
                          extra_fields=("rho", "vec", "z", "zn", "flags"))


def test_writers_match_the_oracle_on_special_values():
    result = odd_result()
    assert render(result, "json") == json_oracle(result)
    assert render(result, "csv") == csv_oracle(result)
    document = json.loads(render(result, "json"))
    assert document["summary"]["inf"] == "inf" and document["summary"]["np_flag"] == "False"
    assert document["summary"]["1"] == "collides with the int key"


@pytest.mark.parametrize("value", [math.nan, np.float64(math.nan), np.array([1.0, math.inf]),
                                   np.array([[math.nan]]), np.array([1j * math.inf]),
                                   complex(math.inf, 0.0), [np.array(-math.inf)]],
                         ids=["nan", "np-nan", "inf-in-array", "nan-in-array",
                              "inf-in-complex-array", "inf-in-complex", "inf-in-0d-array"])
def test_json_rejects_non_finite_values_the_oracle_rejects(value):
    result = ScenarioResult(name="x", config={}, rows=[], summary={"bad": value})
    with pytest.raises(ValueError):
        json_oracle(result)
    with pytest.raises(ValueError):
        render(result, "json")


@pytest.mark.parametrize("points", [2, 200])
def test_one_full_state_spectrum_per_dynamic_run(monkeypatch, points):
    """Of the eigen-solver calls qrf_lab.states makes in one _dynamic_rows run, exactly one
    takes d_p x d_p matrices, for S(rho0), however long the grid; the rest take marginals."""
    shapes = []

    def counted(solver):
        def call(a, *args, **kwargs):
            shapes.append(np.shape(a)[-2:])
            return solver(a, *args, **kwargs)
        return call

    class Linalg:
        eigh, eigvalsh = staticmethod(counted(np.linalg.eigh)), staticmethod(counted(np.linalg.eigvalsh))

        def __getattr__(self, name):
            return getattr(np.linalg, name)

    class Numpy:
        linalg = Linalg()

        def __getattr__(self, name):
            return getattr(np, name)

    dynamic_rows = scenarios._dynamic_rows

    def record_run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(states, "np", Numpy())
            return dynamic_rows(*args, **kwargs)

    monkeypatch.setattr(scenarios, "_dynamic_rows", record_run)
    cfg = parse_config({"scenario": "zz-oscillation", "time_grid": {"start": 0.0, "stop": 3.0, "points": points}})
    assert len(run_scenario(cfg).rows) == points
    d_p = cfg.setup.d_perspective
    assert shapes.count((d_p, d_p)) == 1 and len(shapes) > 1


def test_no_entropy_cell_of_a_default_scenario_reads_minus_zero():
    """A pure state's entropy is +0.0, so no SvN_*, sigma_* or phi_* cell of a default CSV prints -0."""
    for name in scenarios.SCENARIOS:
        header, *lines = render(run_scenario({"scenario": name}), "csv").splitlines()
        entropy = [k for k, column in enumerate(header.split(",")) if column.startswith(("SvN_", "sigma_", "phi_"))]
        assert [line.split(",")[k] for line in lines for k in entropy].count("-0") == 0, name


@pytest.mark.parametrize("name", ["zz-oscillation", "entropy-balance-oscillation",
                                  "zero-to-nonzero-entropy", "isolated-vs-closed"])
def test_entropy_columns_match_the_per_time_balance(monkeypatch, name):
    """Rows over several blocks hold the per-time entropy balances bit for bit.

    The initial state is checked for a product once per run, both perspectives
    in one stack, not once per block; a perspective whose initial state is no product
    (frame j for isolated-vs-closed) keeps its sigma and phi cells empty.
    zero-to-nonzero-entropy starts from a full-rank frame state, so its
    relative entropies, and with them sigma and phi, stay finite.
    """
    checks, runs = [], []
    initial_product, dynamic_rows = scenarios.initial_product, scenarios._dynamic_rows

    def count_checks(*args, **kwargs):
        checks.append(args)
        return initial_product(*args, **kwargs)

    def record_run(cfg, h, rho0, *args, **kwargs):
        runs.append((h, rho0))
        return dynamic_rows(cfg, h, rho0, *args, **kwargs)

    monkeypatch.setattr(scenarios, "initial_product", count_checks)
    monkeypatch.setattr(scenarios, "_dynamic_rows", record_run)
    points = block_length(4) + 44
    cfg = parse_config({"scenario": name, "time_grid": {"start": 0.0, "stop": 7.0, "points": points}})
    rows = run_scenario(cfg).rows
    assert len(rows) == points and len(runs) == 1 and len(checks) == 1
    d_p = cfg.setup.d_perspective
    assert np.shape(checks[0][1]) == (2, 1, d_p, d_p)

    (h, rho0_i), = runs
    setup, dims = cfg.setup, (cfg.setup.d_frame, cfg.setup.d_s)
    change = setup.perspective_change(cfg.g_i, cfg.g_j)
    rho0 = {"i": rho0_i, "j": change.conjugate(rho0_i)}
    products = {suffix: initial_product(setup, rho, cfg.tolerance).is_product
                for suffix, rho in rho0.items()}
    assert products == {"i": True, "j": name != "isolated-vs-closed"}
    if name == "zero-to-nonzero-entropy":
        assert all(math.isfinite(row[key]) for row in rows for key in ("sigma_i", "sigma_j", "phi_j"))
    # S(rho(t)) is S(rho0) on a unitary trajectory in either frame, and the rows take it once, from rho0.
    s0 = von_neumann_entropy(rho0_i)
    for row, rho_i in zip(rows, GridEvolution(h).states(rho0_i, cfg.time_grid)):
        for suffix, rho_t in (("i", rho_i), ("j", change.conjugate(rho_i))):
            assert abs(von_neumann_entropy(rho_t) - s0) <= 1e-14
            assert row[f"SvN_s_{suffix}"] == von_neumann_entropy(partial_trace(rho_t, dims, drop=0))
            if products[suffix]:
                balance = entropy_production_and_flow(setup, rho0[suffix], rho_t, cfg.tolerance, s_t=s0)
                assert (row[f"sigma_{suffix}"], row[f"phi_{suffix}"]) == (balance.sigma, balance.phi)
            else:
                assert (row[f"sigma_{suffix}"], row[f"phi_{suffix}"]) == (None, None)


@pytest.mark.parametrize("prescription", [{"prescription": "split_alpha", "alpha_s": 0.5},
                                          {"prescription": "commuting_part"}], ids=["split_alpha", "commuting_part"])
def test_defaults_render_as_through_the_per_perspective_walk(monkeypatch, prescription):
    """All 11 defaults render to the same CSV and JSON text whether both perspectives run as one
    stack or each on its own, as per_perspective_rows and per_perspective_static_row run them."""
    configs = [{"scenario": name, "prescription": prescription} for name in scenarios.SCENARIOS]
    stacked = [render(run_scenario(cfg), fmt) for cfg in configs for fmt in ("csv", "json")]
    monkeypatch.setattr(scenarios, "_dynamic_rows", per_perspective_rows)
    monkeypatch.setattr(scenarios, "_static_entropy_row", per_perspective_static_row)
    assert len(configs) == 11
    assert stacked == [render(run_scenario(cfg), fmt) for cfg in configs for fmt in ("csv", "json")]


def _pauli_label_by_enumeration(mat):
    """Every Pauli string times every phase in turn, the first np.allclose match, or "?"."""
    d = mat.shape[0]
    n = d.bit_length() - 1
    if d != 2 ** n or n > 3:
        return "?"
    for names in itertools.product("IXYZ", repeat=n):
        candidate = kron(*(PAULI[name] for name in names))
        for phase, prefix in scenarios._PHASE_LABELS:
            if np.allclose(mat, phase * candidate, atol=1e-12):
                return prefix + ".".join(names)
    return "?"


def test_pauli_label_matches_the_enumeration():
    """The largest Tr(P M) / d picks the one candidate: every string at every phase for
    n = 1..3 gets the enumeration's label, and so do matrices that are no Pauli string."""
    for n in (1, 2, 3):
        for names in itertools.product("IXYZ", repeat=n):
            for phase, prefix in scenarios._PHASE_LABELS:
                mat = phase * kron(*(PAULI[name] for name in names))
                label = scenarios._pauli_label(mat)
                assert label == _pauli_label_by_enumeration(mat) == prefix + ".".join(names)
    hadamard = (SIGMA_X + SIGMA_Z) / math.sqrt(2)
    others = (hadamard, SIGMA_X + SIGMA_Z, np.zeros((2, 2)), 1.0001 * SIGMA_X, kron(hadamard, SIGMA_X),
              np.eye(3), np.eye(16))
    for mat in others:
        assert scenarios._pauli_label(mat) == _pauli_label_by_enumeration(mat) == "?"
    # Within np.allclose's default rtol of 1e-5 a rescaled Pauli keeps its label.
    assert scenarios._pauli_label(1.000001 * SIGMA_X) == _pauli_label_by_enumeration(1.000001 * SIGMA_X) == "X"


GRID_SCENARIOS = [name for name, entry in scenarios.SCENARIOS.items() if entry.run is None]
RATE_COLUMNS = [f"{stem}_s_{suffix}" for stem in ("qdot", "wdot", "estar") for suffix in "ij"]


def _scaled_rows(name, prescription, scale):
    """Rows of a time-grid default with its H given as Pauli terms times scale and its grid divided by it."""
    cfg = parse_config({"scenario": name})
    entry, grid = scenarios.SCENARIOS[name], cfg.raw["time_grid"]
    h = entry.hamiltonian(cfg)
    terms = [{"coefficient": scale * np.trace(kron(PAULI[a], PAULI[b]) @ h).real / 4, "factors": [a, b]}
             for a, b in itertools.product("IXYZ", repeat=2)]
    time_grid = {"start": grid["start"] / scale, "stop": grid["stop"] / scale, "points": grid["points"]}
    return run_scenario({"scenario": name, "prescription": prescription, "hamiltonian": {"terms": terms},
                         "time_grid": time_grid}).rows


@pytest.mark.parametrize("prescription", [{"prescription": "split_alpha", "alpha_s": 0.5},
                                          {"prescription": "commuting_part"}], ids=["split_alpha", "commuting_part"])
@pytest.mark.parametrize("name", GRID_SCENARIOS)
def test_rows_do_not_depend_on_the_energy_scale(name, prescription):
    """H -> s H with t -> t / s, s from 1e-8 to 1e8: every membership verdict is the same, and every
    rate, which scales as s^2, is s^2 times its s = 1 value within 1e-10 (1 + max |rate|).  Rows only:
    a summary may probe fixed times, which do not scale."""
    assert len(GRID_SCENARIOS) == 7
    reference = _scaled_rows(name, prescription, 1.0)
    verdicts = [key for key in ("in_AX", "in_identity", "in_flip") if key in reference[0]]
    expected = {key: [row[key] for row in reference] for key in verdicts}
    rates = np.array([[row[key] for key in RATE_COLUMNS] for row in reference])
    bound = 1e-10 * (1.0 + np.abs(rates).max(axis=0))
    for scale in (1e-8, 1e-4, 1e4, 1e8):
        rows = _scaled_rows(name, prescription, scale)
        assert {key: [row[key] for row in rows] for key in verdicts} == expected, scale
        scaled = np.array([[row[key] for key in RATE_COLUMNS] for row in rows]) / scale ** 2
        assert (np.abs(scaled - rates) <= bound).all(), (scale, np.abs(scaled - rates).max(axis=0))


# The parameters that set the scale of H, for the time-grid defaults whose summaries probe no fixed time
# and no fixed H coefficient.
SCALED_PARAMETERS = {"zz-oscillation": ("field_b", "coupling_j"),
                     "effectively-isolated": ("field_b", "coupling_j"),
                     "relative-equilibrium": ("a", "b")}


def _scaled_result(name, scale):
    """A time-grid default with its scale parameters times scale and its grid's stop divided by it."""
    cfg = parse_config({"scenario": name})
    grid = cfg.raw["time_grid"]
    return run_scenario({"scenario": name,
                         "params": {key: scale * cfg.params[key] for key in SCALED_PARAMETERS[name]},
                         "time_grid": dict(grid, stop=grid["stop"] / scale)})


@pytest.mark.parametrize("name", sorted(SCALED_PARAMETERS))
def test_summaries_do_not_depend_on_the_energy_scale(name):
    """H -> s H with the grid's stop -> stop / s, s from 1e-8 to 1e8: in_AX is the same, the membership
    times times s keep their length and stay within 1e-12 stop of their s = 1 values, and each deviation,
    h_tilde_s's over s, stays within 1e-12 of its s = 1 value.  The entries that echo the scaled
    parameters are skipped."""
    reference = _scaled_result(name, 1.0)
    stop = reference.config["time_grid"]["stop"]
    expected = {key: value for key, value in reference.summary.items() if key not in SCALED_PARAMETERS[name]}
    assert expected
    for scale in (1e-8, 1e-4, 1e4, 1e8):
        result = _scaled_result(name, scale)
        assert [row["in_AX"] for row in result.rows] == [row["in_AX"] for row in reference.rows], scale
        summary = {key: value for key, value in result.summary.items() if key not in SCALED_PARAMETERS[name]}
        assert summary.keys() == expected.keys()
        for key, value in summary.items():
            if key.endswith("_times"):
                assert len(value) == len(expected[key]), (scale, key)
                gap = np.abs(scale * np.array(value) - expected[key]).max(initial=0.0)
                assert gap <= 1e-12 * stop, (scale, key, gap)
            else:
                value = value / scale if key == "h_tilde_s_dev_from_minus_2j_z" else value
                assert abs(value - expected[key]) <= 1e-12, (scale, key, value)
