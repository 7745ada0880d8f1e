"""Show that every output check passes on real output and fails on a corrupted copy.

Run from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/selftest.py

Each line names one check and one corruption.  The script exits with 1
if a check rejects real output or accepts a corrupted one.
"""
from __future__ import annotations

import copy
import dataclasses
import os
import sys

import numpy as np

import workloads as wl


def catalog_rows(name, fmt, out_dir, seed=1):
    rng = wl._rng(seed, 1)
    params = wl.catalog_params(rng, name, 0 if fmt == "csv" else 1)
    op = wl.CatalogOp(name, params, fmt, os.path.join(out_dir, f"selftest-{name}.{fmt}"))
    op()
    with open(op.path, encoding="utf-8") as fh:
        text = fh.read()
    rows = wl.parse_csv(text) if fmt == "csv" else wl.parse_json(text)
    return op, rows


def bump(key, delta=1e-9, row=None):
    def corrupt(rows):
        for r in rows if row is None else [rows[row]]:
            r[key] = r[key] + delta
        return rows
    return corrupt


CATALOG_CASES = [
    ("row count", "zz-oscillation", "csv", lambda rows: rows[:-1], "rows, expected"),
    ("energy constant in time", "zz-oscillation", "csv", bump("E_int_i", row=7),
     "perspective i moves"),
    ("energy equal across perspectives", "effectively-isolated", "json", bump("E_s_j"),
     "perspective j moves"),
    ("relative-equilibrium SvN_s_j binary entropy", "relative-equilibrium", "csv",
     bump("SvN_s_j", row=11), "SvN_s_j"),
    ("relative-equilibrium SvN_s_i constant", "relative-equilibrium", "json",
     bump("SvN_s_i", row=3), "SvN_s_i is not constant"),
    ("zero-to-nonzero purity formula", "zero-to-nonzero-entropy", "json",
     bump("purity_s_j", row=5), "purity_s_j"),
    ("zero-to-nonzero SvN_s_j from the purity formula", "zero-to-nonzero-entropy", "csv",
     bump("SvN_s_j", row=5), "disagrees with the purity formula"),
    ("zero-to-nonzero sigma_i = 0", "zero-to-nonzero-entropy", "csv", bump("sigma_i", row=9),
     "sigma_i"),
    ("negative-temperature rho_S_R2 Gibbs at -beta/mu", "negative-temperature", "json",
     bump("rho_S_R2", delta=np.diag([1e-9, -1e-9]), row=2), "rho_S_R2"),
    ("negative-temperature SvN_s_j Gibbs entropy", "negative-temperature", "csv",
     bump("SvN_s_j", row=2), "Gibbs entropy"),
    ("isolated-vs-closed rates vanish", "isolated-vs-closed", "csv", bump("wdot_s_j", row=4),
     "a rate reaches"),
    ("isolated-vs-closed SvN_s_i = 0", "isolated-vs-closed", "json", bump("SvN_s_i", row=4),
     "SvN_s_i is not 0"),
    ("isolated-vs-closed SvN_s_j = ln 2", "isolated-vs-closed", "csv", bump("SvN_s_j", row=4),
     "SvN_s_j is not ln 2"),
    ("effectively-isolated SvN_s_i = SvN_s_j", "effectively-isolated", "csv",
     bump("SvN_s_j", row=8), "SvN_s_i and SvN_s_j differ"),
]


class Corrupted:
    """A projector whose dimension or apply is altered."""

    def __init__(self, inner, dimension=0, apply=None):
        self.inner = inner
        self.dimension = inner.dimension + dimension
        self._apply = apply

    def apply(self, op):
        out = self.inner.apply(op)
        return out if self._apply is None else self._apply(op, out)


def ladder_cases(rung):
    first, second, both = rung.run()
    d = rung.setup.d_perspective
    kick = np.zeros((d, d), dtype=complex)
    kick[0, 1] = 1e-6
    return (first, second, both), [
        ("ladder dimension = sum m_k^2", (Corrupted(first, dimension=1), second, both),
         "sum of squared multiplicities"),
        ("ladder projected f commutes with W",
         (first, Corrupted(second, apply=lambda f, out: out + np.linalg.norm(f) * kick), both),
         "misses commuting with W"),
        ("ladder intersection fixed by both maps",
         (first, second, Corrupted(both, apply=lambda f, out: f)), "intersection output moves"),
        ("ladder identity fixed by the intersection",
         (first, second, Corrupted(both, apply=lambda f, out: 0.0 * out)),
         "identity is not fixed"),
    ]


def main():
    failures = 0

    def verdict(label, clean, corrupted, expect):
        nonlocal failures
        hits = [m for m in corrupted if expect in m]
        ok = not clean and bool(hits)
        failures += not ok
        reason = hits[0] if hits else f"accepted, or rejected for another reason: {corrupted}"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: clean {'passes' if not clean else clean}; "
              f"corrupted -> {reason}")

    out_dir = os.path.join(".perfbench_out", "selftest")
    os.makedirs(out_dir, exist_ok=True)
    for label, name, fmt, corrupt, expect in CATALOG_CASES:
        op, rows = catalog_rows(name, fmt, out_dir)
        clean = wl.check_catalog_rows(name, op.params, fmt, rows, op.expected_rows)
        bad = wl.check_catalog_rows(name, op.params, fmt, corrupt(copy.deepcopy(rows)),
                                    op.expected_rows)
        verdict(label, clean, bad, expect)

    rung = wl.Rung((3,), "regular", wl._rng(1, 2))
    real, cases = ladder_cases(rung)
    clean = wl.check_rung(rung.label, rung.w, rung.expected_dims, rung.probe, real)
    for label, projectors, expect in cases:
        verdict(label, clean, wl.check_rung(rung.label, rung.w, rung.expected_dims,
                                            rung.probe, projectors), expect)

    case = wl.WideCase((3,), "regular", wl._rng(1, 3))
    report = case.run(grid=5)
    clean = wl.check_balance(report)
    for label, change, expect in (
            ("wide membership_ok", {"membership_ok": False}, "membership_ok"),
            ("wide rates_match", {"rates_match": False}, "rates_match"),
            ("wide rates_max_gap <= 1e-12", {"rates_max_gap": 1e-9}, "rates_max_gap")):
        verdict(label, clean, wl.check_balance(dataclasses.replace(report, **change)), expect)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
