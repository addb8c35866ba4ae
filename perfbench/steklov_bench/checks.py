"""Output checks for every benchmark operation.

A check returns a list of problems; an empty list means the output is
correct.  Nothing here imports the package under test, so the checks can
be tested on hand-made inputs.
"""

from __future__ import annotations

import csv
import io

# Audit invariants that hold up to roundoff by construction; on the
# unit square n = 32 with standard normal data they stay below 1e-12.
INVARIANT_TOL = 1e-10

# Ladder columns derived by cancellation from lambda and lower: the
# errors lambda - lower (down to about 1e-6) and the observed orders, logs
# of error ratios printed to 4 decimals.  A roundoff change of 1e-12 in
# lambda moves the error's 7th digit, and through it the order's last.
# They are compared to an absolute tolerance; every other field exactly.
DERIVED_TOL = {"abs_err_": 1e-9, "total_err": 1e-9, "order_": 1.5e-4}


def _tolerance(key):
    for prefix, tol in DERIVED_TOL.items():
        if key.startswith(prefix):
            return tol
    return None


def parse_csv(text):
    """Rows of a CLI CSV report as dicts of the printed strings."""
    return list(csv.DictReader(io.StringIO(text)))


def check_ladder(text, expected, references, method):
    """Compare a convergence CSV with the committed output and the references.

    Every printed field must equal the committed one exactly, except the
    derived columns of DERIVED_TOL, which must agree to that absolute
    tolerance (an empty field only with an empty one).  Every row
    must certify the reference eigenvalues: lower_i <= ref_i for both
    methods and ref_i <= lambda_i for the conforming one, whose discrete
    eigenvalues are upper bounds.
    """
    problems = []
    got_lines = text.splitlines()
    want_lines = expected.splitlines()
    if not got_lines or got_lines[0] != want_lines[0]:
        return [f"header differs: {got_lines[:1]} != {want_lines[:1]}"]
    rows, want_rows = parse_csv(text), parse_csv(expected)
    if len(rows) != len(want_rows):
        problems.append(f"{len(rows)} rows, expected {len(want_rows)}")
    for index, (row, want) in enumerate(zip(rows, want_rows)):
        for key, value in want.items():
            tol = _tolerance(key)
            if row[key] == value:
                continue
            if tol is not None and row[key] and value and abs(float(row[key]) - float(value)) <= tol:
                continue
            problems.append(f"row {index} {key}: {row[key]!r} != {value!r}")
    for index, row in enumerate(rows):
        for i, ref in enumerate(references, start=1):
            if f"lambda_{i}" not in row:
                break
            lam, lower = float(row[f"lambda_{i}"]), float(row[f"lower_{i}"])
            if not lower <= ref:
                problems.append(f"row {index}: lower_{i} {lower} > reference {ref}")
            if method == "conforming" and not ref <= lam:
                problems.append(f"row {index}: lambda_{i} {lam} < reference {ref}")
    return problems


def check_audit_op(volume, surface, mean_shift, gap, error, kappa, data_norm):
    """The flux audit invariants of one boundary datum.

    volume and surface are the two sides of the compatibility condition
    (volume integral of the Neumann solution, boundary integral of the
    data); the error must be dominated by the certified constant times
    the boundary norm of the data.  The error-route check of the solver
    itself raises and is counted by the caller.
    """
    problems = []
    scale = max(abs(volume), abs(surface), 1.0)
    if not abs(volume - surface) <= INVARIANT_TOL * scale:
        problems.append(f"compatibility residual {abs(volume - surface):.3e}")
    if not abs(mean_shift) <= INVARIANT_TOL:
        problems.append(f"mean shift {mean_shift:.3e}")
    if not gap <= INVARIANT_TOL:
        problems.append(f"divergence gap {gap:.3e}")
    if not error <= kappa * data_norm:
        problems.append(f"error {error:.6e} exceeds kappa * |g| = {kappa * data_norm:.6e}")
    return problems
