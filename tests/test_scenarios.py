import json
import math
from collections import Counter

import numpy as np
import pytest

from qrf_lab import frames, scenarios
from qrf_lab.dynamics import GridEvolution, block_length
from qrf_lab.frames import PerspectiveChange
from qrf_lab.operators import partial_trace
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

from property_suites import entropy_production_and_flow

EYE = [[1.0, 0.0], [0.0, 1.0]]
FLIP = [[0.0, 1.0], [1.0, 0.0]]


def test_the_size_budget_admits_d_p_2048_and_refuses_the_next_power(monkeypatch):
    """Z2 with tensor_power 10 has d_p = 2048, 64 MiB per complex matrix: the largest admitted,
    far above the d_p = 125 of Z5 with tensor_power 2, the largest the tests and README use."""
    monkeypatch.setattr(frames.FrameSetup, "from_rep_config", lambda group, rep: ("built", rep))
    base = {"scenario": "w-state", "group": {"cyclic": [2]}}
    assert parse_config(dict(base, rep={"tensor_power": 10})).setup == ("built", {"tensor_power": 10})
    with pytest.raises(ConfigError, match="perspective dimension 4096 needs 268435456 bytes"):
        parse_config(dict(base, rep={"tensor_power": 11}))


def test_defaults_fill_in():
    cfg = parse_config({"scenario": "zz-oscillation"})
    assert cfg.scenario == "zz-oscillation"
    assert cfg.group.order == 2
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
    cfg = parse_config({"scenario": "zz-oscillation", "group": {"cyclic": [2, 3]},
                        "orientations": {"g_i": [1, 2], "g_j": [0, 0]}})
    assert cfg.group.order == 6
    assert cfg.group.factors == (2, 3)
    assert cfg.g_i == (1, 2)


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
], ids=lambda value: value if isinstance(value, str) else "config")
def test_rejected_configs_name_the_offender(config, path_fragment):
    # Parameters are read by the scenario itself, so the whole run is tried.
    with pytest.raises(ConfigError) as err:
        run_scenario(config)
    assert path_fragment in str(err.value)


FLOAT_PARAMS = [(name, key) for name, entry in scenarios.SCENARIOS.items()
                for key, value in entry.defaults.get("params", {}).items() if isinstance(value, float)]


@pytest.mark.parametrize("name, key", FLOAT_PARAMS, ids=lambda value: value)
def test_float_parameters_are_validated_by_parse_config(name, key):
    """A parameter with a float default is checked once, in parse_config, under its params path."""
    with pytest.raises(ConfigError) as err:
        parse_config({"scenario": name, "params": {key: "1.5"}})
    assert (err.value.path, err.value.reason) == (f"params.{key}", "expected a finite number, got '1.5'")
    cfg = parse_config({"scenario": name, "params": {key: 2}})
    assert cfg.params[key] == 2.0 and isinstance(cfg.params[key], float)
    assert cfg.raw["params"][key] == 2 and isinstance(cfg.raw["params"][key], int)


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
    with pytest.raises(ConfigError, match=r"params\.p_w: expected a probability"):
        run_scenario({"scenario": "ghz", "params": {"variant": "mixed-w", "p_w": 1.5}})
    assert run_scenario({"scenario": "ghz", "params": {"p_w": 1.5}}).summary["variant"] == "separable"


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
    assert result.columns == COLUMNS
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
    cells = dict(zip(result.columns, lines[1].split(",")))
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
    columns = list(result.columns) + list(result.extra_fields)
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

    lines = [",".join(result.columns)]
    lines += [",".join(cell(row.get(c)) for c in result.columns) for row in result.rows]
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


@pytest.mark.parametrize("name", ["zz-oscillation", "entropy-balance-oscillation",
                                  "zero-to-nonzero-entropy", "isolated-vs-closed"])
def test_entropy_columns_match_the_per_time_balance(monkeypatch, name):
    """Rows over several blocks hold the per-time entropy balances bit for bit.

    The initial state is checked for a product once per perspective and run,
    not once per block; a perspective whose initial state is no product
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
    assert len(rows) == points and len(runs) == 1 and len(checks) == 2

    (h, rho0_i), = runs
    setup, dims = cfg.setup, (cfg.setup.d_frame, cfg.setup.d_s)
    change = setup.perspective_change(cfg.g_i, cfg.g_j)
    rho0 = {"i": rho0_i, "j": change.conjugate(rho0_i)}
    products = {suffix: initial_product(setup, rho, cfg.tolerance).is_product
                for suffix, rho in rho0.items()}
    assert products == {"i": True, "j": name != "isolated-vs-closed"}
    if name == "zero-to-nonzero-entropy":
        assert all(math.isfinite(row[key]) for row in rows for key in ("sigma_i", "sigma_j", "phi_j"))
    for row, rho_i in zip(rows, GridEvolution(h).states(rho0_i, cfg.time_grid)):
        for suffix, rho_t in (("i", rho_i), ("j", change.conjugate(rho_i))):
            assert row[f"SvN_s_{suffix}"] == von_neumann_entropy(partial_trace(rho_t, dims, drop=0))
            if products[suffix]:
                balance = entropy_production_and_flow(setup, rho0[suffix], rho_t, cfg.tolerance)
                assert (row[f"sigma_{suffix}"], row[f"phi_{suffix}"]) == (balance.sigma, balance.phi)
            else:
                assert (row[f"sigma_{suffix}"], row[f"phi_{suffix}"]) == (None, None)
