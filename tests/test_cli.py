import argparse
import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrf_lab
from qrf_lab import frames
from qrf_lab.cli import main
from qrf_lab.scenarios import ConfigError, list_scenarios, parse_config


def test_list_prints_catalog(capsys):
    assert main(["list"]) == 0
    lines = [line for line in capsys.readouterr().out.strip().split("\n") if line]
    assert len(lines) == 11
    assert any(line.startswith("w-state ") for line in lines)
    assert any(line.startswith("zz-oscillation ") for line in lines)


def test_run_prints_csv_with_summary_on_stderr(capsys):
    assert main(["run", "three-qubit-subalgebras"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("t,E_s_i,")
    assert "# dim_identity = 10" in captured.err
    assert "# dim_intersection = 6" in captured.err
    assert "# scan.member_found = False" in captured.err


def test_json_mode_keeps_summary_in_document(capsys):
    assert main(["run", "w-state", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    document = json.loads(captured.out)
    assert document["scenario"] == "w-state"
    assert "svn_s_j" in document["summary"]


def test_run_to_file_with_override(tmp_path, capsys):
    out = tmp_path / "rows.json"
    code = main(["run", "negative-temperature",
                 "--set", "params.mu=1.0",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    document = json.loads(out.read_text())
    assert document["metadata"]["config"]["params"]["mu"] == 1.0
    assert len(document["rows"]) == 5


def test_override_accepts_json_values(capsys):
    code = main(["run", "zz-oscillation",
                 "--set", 'time_grid={"start": 0.0, "stop": 1.0, "points": 3}'])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 3


def test_config_file_target(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "scenario": "relative-equilibrium",
        "time_grid": {"start": 0.0, "stop": 1.0, "points": 4},
    }))
    assert main(["run", str(path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1 + 4


@pytest.mark.parametrize("argv, fragment", [
    (["run", "nope"], "valid names:"),
    (["run", "w-state", "--set", "params.mu"], "expected KEY=VALUE"),
    (["run", "w-state", "--set", "params.bogus=1"], "params.bogus"),
    (["run", "ghz", "--set", "tolerance=-2"], "tolerance"),
    (["run", "relative-equilibrium", "--set", "params.beta=NaN"], "params.beta"),
    (["run", "zz-oscillation", "--set", "orientations.g_i=[0.7]"], "orientations.g_i[0]"),
    # Amplitude lists are checked even where the chosen variant or state does not read them.
    (["run", "ghz", "--set", 'params.variant="global"', "--set", 'params.frame_amplitudes="junk"'],
     "params.frame_amplitudes: expected a non-empty list"),
    (["run", "zz-oscillation", "--set", "params.amplitudes=[1,2,3]"],
     "params.amplitudes: expected two amplitudes"),
    (["run", "negative-temperature", "--set", "prescription.alpha_s=NaN"], "prescription.alpha_s"),
    (["run", "negative-temperature", "--set", "prescription.alpha_s=Infinity"], "prescription.alpha_s"),
    (["run", "negative-temperature", "--set", "prescription.alpha_s=true"], "prescription.alpha_s"),
    (["run", "negative-temperature", "--set", 'prescription.alpha_s="0.3"'], "prescription.alpha_s"),
    (["run", "negative-temperature", "--set", "prescription=5"], "prescription"),
    (["run", "negative-temperature", "--set", "prescription.alpha=0.9"], "prescription.alpha:"),
    (["run", "three-qubit-subalgebras", "--set", "params.coefficients=3"], "params.coefficients"),
    (["run", "three-qubit-subalgebras", "--set", "params.scan_coefficients=3"],
     "params.scan_coefficients"),
    (["run", "negative-temperature", "--set", 'prescription.prescription="nope"'],
     "prescription: unknown prescription config"),
    # A rep.matrices entry that is not a list of equal-length rows.
    *((["run", "zz-oscillation", "--set", f'rep={{"matrices": {{"0": {entry}, "1": [[0, 1], [1, 0]]}}}}'],
       "rep.matrices.0: expected a non-empty list of equal-length rows")
      for entry in ("[[1, 0], [0]]", "5", "[1, 0]")),
    # Characters i^g of Z4 times the identity on the d_s = 16 that gb-states needs, wrong only
    # at the non-generator element (2,).
    (["run", "gb-states", "--set", "group.cyclic=[4]", "--set", "params.frame_amplitudes=[1, 0, 0, 0]",
      "--set", "rep=" + json.dumps({"matrices": {str(g): [[phase if r == c else 0 for c in range(16)]
                                                          for r in range(16)]
                                                 for g, phase in enumerate([1, [0, 1], 1, [0, -1]])}})],
     "rep.matrices: representation is not a homomorphism"),
    # "1" and "01" name one element; the later matrix Z used to replace X, and the run exited 0.
    (["run", "zz-oscillation", "--set",
      'rep={"matrices": {"0": [[1, 0], [0, 1]], "1": [[0, 1], [1, 0]], "01": [[1, 0], [0, -1]]}}'],
     "rep.matrices.01: keys '1' and '01' name the same element"),
])
@pytest.mark.filterwarnings("error")
def test_config_errors_exit_two(argv, fragment, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert fragment in err


MALFORMED = (None, "junk", -1, 0, 0.5, True, [], {}, [1, 2], [[1, 2], [3]], [[[1.0]]])
REP_MATRICES = ([], {}, {"0": []}, {"0": "junk"}, {"0": [[1, 0], [0]]}, {"0": [[1, 0], [0, 1]], "1": [[0, 1]]},
                {"0": [[1]], "1": [[0, 1], [1, 0]]}, {"2": [[1, 0], [0, 1]]}, {"x": [[1]]},
                {"1": [[2, 0], [0, 1]]}, {"0": [[1, 0], [0, 1]], "1": [[0, 1], [1, 0]]},
                {"0": [["1", 0], [0, 1]]}, {"0": [[None, 0], [0, 1]]}, {"0": [[[1, 0], 0], [0, 1]]})


def _paths(node, path=()):
    """The path of every entry of nested dicts and lists, containers and leaves alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutants(name):
    """The defaults of a scenario with one entry replaced by a malformed value, then with
    malformed rep.matrices."""
    defaults = parse_config({"scenario": name}).raw
    for path in _paths(defaults):
        for value in MALFORMED:
            raw = copy.deepcopy(defaults)
            node = raw
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            yield raw
    for matrices in REP_MATRICES:
        yield dict(defaults, rep={"matrices": matrices})


@pytest.mark.filterwarnings("error")
def test_malformed_configs_exit_zero_or_two(tmp_path, capsys):
    """Keep the boundary: every entry of a time-grid and a static scenario's defaults,
    replaced by a small malformed value, is either run or refused as a config error."""
    crashed = []
    for name in ("zz-oscillation", "gb-states"):
        for k, raw in enumerate(_mutants(name)):
            path = tmp_path / f"{name}-{k}.json"
            path.write_text(json.dumps(raw))
            code = main(["run", str(path), "--format", "json"])
            if code not in (0, 2):
                crashed.append((raw, capsys.readouterr().err))
            capsys.readouterr()
    assert crashed == []


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("a setup was built")


@pytest.mark.parametrize("overrides, key", [
    # Z6 with tensor_power 5: d_s = 7776, six 968 MB rep matrices, and one d_p x d_p matrix of 35 GB.
    (["group.cyclic=[6]", "rep.tensor_power=5"], "rep.tensor_power"),
    # Z100000 regular: its Cayley table alone would take 80 GB.
    (["group.cyclic=[100000]"], "group.cyclic"),
    (["group.cyclic=[3]", "rep.tensor_power=1000000000"], "rep.tensor_power"),
    (["group.cyclic=[5000]", 'rep={"matrices": {"0": [[1]]}}'], "rep.matrices"),
])
def test_oversize_setups_exit_two_before_any_is_built(overrides, key, monkeypatch, capsys):
    """The size is estimated from the config alone; nothing of that size is ever allocated."""
    monkeypatch.setattr(qrf_lab.FrameSetup, "__init__", _refuse_to_build)
    monkeypatch.setattr(qrf_lab.FrameSetup, "from_rep_config", _refuse_to_build)
    argv = ["run", "zz-oscillation"]
    for assignment in overrides:
        argv += ["--set", assignment]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: perspective dimension ")


_QUBIT_PAIR = "needs one qubit frame pair and a qubit system"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["three-qubit-subalgebras", "--set", "group.cyclic=[3]"],
                 f"group: scenario 'three-qubit-subalgebras' {_QUBIT_PAIR}", id="three-qubit-subalgebras-z3"),
    pytest.param(["zz-oscillation", "--set", "group.cyclic=[3]"],
                 f"group: scenario 'zz-oscillation' {_QUBIT_PAIR}", id="zz-oscillation-z3"),
    pytest.param(["w-state", "--set", "params.n_qubits=4"],
                 "params.n_qubits: representation dimension 8 does not match 4 qubits", id="w-state-4-qubits"),
    pytest.param(["gb-states", "--set", "rep.tensor_power=1"],
                 "rep: scenario needs the system to carry two regular factors", id="gb-states-power-1"),
    pytest.param(["ghz", "--set", "rep.tensor_power=2"],
                 "rep: scenario needs a qubit group with a three-qubit system", id="ghz-power-2"),
    # Z1024 with the trivial 1 x 1 rep: within the size budget, but no qubit frame pair.
    pytest.param(["zz-oscillation", "--set", "group.cyclic=[1024]", "--set",
                  "rep=" + json.dumps({"matrices": {str(k): [[1]] for k in range(1024)}})],
                 f"group: scenario 'zz-oscillation' {_QUBIT_PAIR}", id="zz-oscillation-z1024-matrices"),
])
def test_wrong_shapes_exit_two_before_any_setup_is_built(argv, message, monkeypatch, capsys):
    """Each scenario's requirement on (|G|, d_s) is read from the config alone."""
    monkeypatch.setattr(qrf_lab.FrameSetup, "__init__", _refuse_to_build)
    monkeypatch.setattr(qrf_lab.FrameSetup, "from_rep_config", _refuse_to_build)
    for fmt in ("csv", "json"):
        assert main(["run"] + argv + ["--format", fmt]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")


def test_oversize_time_grid_exits_two_before_it_is_built(monkeypatch, capsys):
    monkeypatch.setattr(np, "linspace", _refuse_to_build)
    assert main(["run", "zz-oscillation", "--set", "time_grid.points=1000000000000"]) == 2
    assert capsys.readouterr().err.startswith("config error: time_grid.points: 1000000000000 points need ")


def test_invalid_json_config_file_exits_two(tmp_path, capsys):
    """The CLI and parse_config read a JSON file through one function; the CLI names the file."""
    broken, listed = tmp_path / "broken.json", tmp_path / "list.json"
    broken.write_text("{broken")
    listed.write_text("[1, 2]")
    decode = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    for path, message in ((broken, f"invalid JSON in {broken}: {decode}"),
                          (listed, f"top-level config in {listed} must be a JSON object")):
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
    for path, message in ((broken, f"invalid JSON: {decode}"), (listed, "top-level config must be a JSON object")):
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == message


def test_parser_is_built_once_and_keeps_no_override(monkeypatch, capsys):
    """main reuses one parser per process; an override does not leak into the next call."""
    parsers = []
    parse_args = argparse.ArgumentParser.parse_args

    def record(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", record)
    argv = ["run", "negative-temperature"]
    assert main(argv + ["--set", "params.beta=2.0"]) == 0
    overridden = capsys.readouterr()
    assert main(argv) == 0
    second = capsys.readouterr()
    assert len(parsers) == 2 and parsers[0] is parsers[1]

    env = dict(os.environ, PYTHONPATH=str(Path(qrf_lab.__file__).resolve().parents[1]))
    fresh = subprocess.run([sys.executable, "-m", "qrf_lab.cli"] + argv,
                           capture_output=True, text=True, env=env)
    assert fresh.returncode == 0, fresh.stderr
    assert (second.out, second.err) == (fresh.stdout, fresh.stderr)
    assert overridden.out != fresh.stdout


def _snapshot(setup):
    return (setup.translations.tobytes(), setup.d_s, setup.d_frame, setup.group)


def test_shared_setups_change_no_output_and_no_run_changes_them(monkeypatch, capsys):
    """The 11 defaults, ghz global and mixed-w, and each default under commuting_part, in both
    formats, twice in one process: the second pass reuses the first pass's setups, prints the
    same bytes and exits the same, and leaves each setup as it was, its perspective changes aside."""
    names = [name for name, _ in list_scenarios()]
    variants = ([[name] for name in names]
                + [["ghz", "--set", f"params.variant={variant}"] for variant in ("global", "mixed-w")]
                + [[name, "--set", "prescription.prescription=commuting_part"] for name in names])
    argvs = [["run", *variant, "--format", fmt] for variant in variants for fmt in ("csv", "json")]
    assert len(argvs) == 48
    built = {}
    build = frames.FrameSetup.from_rep_config

    def record(group, config):
        setup = build(group, config)
        built.setdefault(id(setup), setup)
        return setup

    monkeypatch.setattr(frames.FrameSetup, "from_rep_config", record)
    frames._tensor_power_setup.cache_clear()
    passes, snapshots = [], []
    for _ in range(2):
        outputs = []
        for argv in argvs:
            code = main(argv)
            outputs.append((code, *capsys.readouterr()))
        passes.append(outputs)
        snapshots.append({key: (_snapshot(setup), set(setup._perspective_changes))
                          for key, setup in built.items()})
    assert passes[1] == passes[0]
    assert all(code == 0 for code, _, _ in passes[0])
    assert len(built) == frames._tensor_power_setup.cache_info().currsize == 3
    assert snapshots[1].keys() == snapshots[0].keys()
    for key, (state, changes) in snapshots[0].items():
        assert snapshots[1][key][0] == state and snapshots[1][key][1] >= changes


def _imports_scipy(code):
    """Whether a fresh interpreter has scipy in sys.modules after running code against this qrf_lab."""
    env = dict(os.environ, PYTHONPATH=str(Path(qrf_lab.__file__).resolve().parents[1]))
    probe = code + "\nimport sys\nprint('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1] == "True"


def _quiet_runs(names):
    return ("import contextlib, io\nfrom qrf_lab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert all(main(['run', name]) == 0 for name in {names!r})")


def test_importing_the_package_imports_no_scipy():
    assert not _imports_scipy("import qrf_lab")


def test_only_the_subalgebra_projectors_import_scipy():
    """Every default but three-qubit-subalgebras runs without scipy: only invariant_projector and
    intersect_projectors import it, and that default, which calls both, does."""
    names = [name for name, _ in list_scenarios()]
    names.remove("three-qubit-subalgebras")
    assert not _imports_scipy(_quiet_runs(names))
    assert _imports_scipy(_quiet_runs(["three-qubit-subalgebras"]))


def test_console_script_runs():
    """The declared console script resolves to ``main`` and runs as the
    wrapper that an install generates would run it, without installing."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts["qrf-lab"] == "qrf_lab.cli:main"
    module, attr = scripts["qrf-lab"].split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ, PYTHONPATH=str(Path(qrf_lab.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", wrapper, "list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "negative-temperature" in proc.stdout


@pytest.mark.skipif(shutil.which("qrf-lab") is None,
                    reason="qrf-lab is not installed on PATH")
def test_installed_console_script_runs():
    proc = subprocess.run([shutil.which("qrf-lab"), "list"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "negative-temperature" in proc.stdout
