"""The catalog's CLI runs, and one SHA-256 over their outputs.

Run as a script from the repository root, it prints the digest of the catalog runs followed by the
budget-edge runs:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:tests python tests/catalog_runs.py
"""

import contextlib
import hashlib
import io

from qrf_lab.cli import main
from qrf_lab.scenarios import list_scenarios


def catalog_argvs():
    """The 11 defaults, ghz global and mixed-w, and each default under commuting_part, each in CSV
    and then in JSON: 48 argv lists."""
    names = [name for name, _ in list_scenarios()]
    variants = ([[name] for name in names]
                + [["ghz", "--set", f"params.variant={variant}"] for variant in ("global", "mixed-w")]
                + [[name, "--set", "prescription.prescription=commuting_part"] for name in names])
    return [["run", *variant, "--format", fmt] for variant in variants for fmt in ("csv", "json")]


def budget_edge_argvs():
    """w-state on 12 qubits at tensor_power 10, in CSV and then in JSON."""
    return [["run", "w-state", "--set", "params.n_qubits=12", "--set", "rep.tensor_power=10", "--format", fmt]
            for fmt in ("csv", "json")]


def output_digest(argvs):
    """The hex SHA-256 of repr((exit code, stdout, stderr)) of each in-process run of cli.main, in order."""
    digest = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update(repr((code, out.getvalue(), err.getvalue())).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    print(output_digest(catalog_argvs() + budget_edge_argvs()))
