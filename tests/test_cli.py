"""End-to-end command line behaviour: files, formats, exit codes."""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from steklov_certify import bounds
from steklov_certify.assembly import assemble_p1
from steklov_certify.cli import certify_level, main
from steklov_certify.mesh import read_mesh, uniform_square_mesh


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


_GOLDEN = Path(__file__).parent / "data"


def _assert_same_doc(got, expected, where="$"):
    """Same JSON structure and key order; numbers equal to 1e-12 relative."""
    if isinstance(expected, dict):
        assert isinstance(got, dict) and list(got) == list(expected), where
        for key in expected:
            _assert_same_doc(got[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), where
        for i, (a, b) in enumerate(zip(got, expected)):
            _assert_same_doc(a, b, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert isinstance(got, float) and math.isclose(got, expected, rel_tol=1e-12), where
    else:
        assert type(got) is type(expected) and got == expected, where


# --- mesh command ---------------------------------------------------------


def test_mesh_command_writes_readable_file(tmp_path, capsys):
    out = tmp_path / "square8.json"
    code, _, err = _run(["mesh", "--domain", "square", "--n", "8", "--out", str(out)], capsys)
    assert code == 0 and err == ""
    mesh = read_mesh(out)
    assert mesh.num_vertices == 81
    assert mesh.num_triangles == 128
    assert mesh.domain == "unit_square"


def test_mesh_command_lshape(tmp_path, capsys):
    out = tmp_path / "l2.json"
    code, _, _ = _run(["mesh", "--domain", "lshape", "--n", "2", "--out", str(out)], capsys)
    assert code == 0
    mesh = read_mesh(out)
    assert mesh.num_triangles == 24
    assert mesh.domain == "l_shape"


def test_mesh_command_rejects_bad_n(tmp_path, capsys):
    out = tmp_path / "bad.json"
    code, _, err = _run(["mesh", "--domain", "square", "--n", "0", "--out", str(out)], capsys)
    assert code == 2
    assert "error:" in err and not out.exists()


# --- bounds command ---------------------------------------------------------


def test_bounds_csv_values(tmp_path, capsys):
    code, out, _ = _run(["bounds", "--domain", "square", "--n", "8", "--k", "3"], capsys)
    assert code == 0
    rows = _parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["domain"] == "unit_square"
    assert row["method"] == "conforming"
    assert row["n"] == "8" and row["h_token"] == "sqrt2/8"
    assert float(row["h"]) == pytest.approx(np.sqrt(2.0) / 8.0, rel=1e-12)
    assert row["dof"] == "81"
    assert float(row["trace_const"]) == pytest.approx(0.4059, abs=1e-4)
    assert float(row["proj_const"]) == pytest.approx(0.2042, abs=2e-4)
    assert float(row["cert_const"]) == pytest.approx(0.4544, abs=2e-4)
    assert row["cr_const"] == ""
    assert float(row["lambda_1"]) == pytest.approx(0.2401798, rel=1e-5)
    assert float(row["lambda_2"]) == pytest.approx(1.502305, rel=1e-5)
    assert float(row["lower_1"]) == pytest.approx(0.228833, rel=1e-4)
    assert float(row["lower_2"]) == pytest.approx(1.146662, rel=1e-4)
    # single level: no order columns
    assert row["order_upper_1"] == "" and row["order_lower_1"] == ""


def test_bounds_total_error_is_sum(capsys):
    code, out, _ = _run(["bounds", "--domain", "square", "--n", "4", "--k", "3"], capsys)
    assert code == 0
    row = _parse_csv(out)[0]
    parts = [float(row[f"abs_err_{i}"]) for i in (1, 2, 3)]
    assert float(row["total_err"]) == pytest.approx(sum(parts), abs=1e-8)


def test_bounds_cr_method(capsys):
    code, out, _ = _run(
        ["bounds", "--domain", "square", "--n", "4", "--k", "3", "--method", "cr"], capsys
    )
    assert code == 0
    row = _parse_csv(out)[0]
    assert row["method"] == "cr"
    assert row["proj_const"] == "" and row["cert_const"] == ""
    assert float(row["cr_const"]) == pytest.approx(0.6110176, rel=1e-5)
    assert float(row["lambda_1"]) == pytest.approx(0.2404829, rel=1e-5)
    assert float(row["lower_1"]) == pytest.approx(0.2206705, rel=1e-4)
    assert row["dof"] == "56"  # one dof per edge


def test_bounds_deterministic_output(tmp_path, capsys):
    args = ["bounds", "--domain", "lshape", "--n", "2", "--k", "3", "--method", "both"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert _run(args + ["--out", str(first)], capsys)[0] == 0
    assert _run(args + ["--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()
    assert len(first.read_bytes()) > 0


def test_bounds_from_mesh_file(tmp_path, capsys):
    mesh_file = tmp_path / "m.json"
    assert _run(["mesh", "--domain", "square", "--n", "4", "--out", str(mesh_file)], capsys)[0] == 0
    code, out, _ = _run(["bounds", "--mesh", str(mesh_file), "--k", "1"], capsys)
    assert code == 0
    row = _parse_csv(out)[0]
    assert float(row["lambda_1"]) == pytest.approx(0.2404841, rel=1e-5)
    # a mesh from disk has no refinement token
    assert row["n"] == "" and row["h_token"] == ""


def test_bounds_no_refs(capsys):
    code, out, _ = _run(
        ["bounds", "--domain", "square", "--n", "4", "--k", "2", "--no-refs"], capsys
    )
    assert code == 0
    row = _parse_csv(out)[0]
    assert row["abs_err_1"] == "" and row["total_err"] == ""
    assert float(row["lower_1"]) > 0.0


def test_bounds_refs_override(tmp_path, capsys):
    refs = tmp_path / "refs.json"
    refs.write_text(json.dumps({"unit_square": {"values": [0.25]}}))
    code, out, _ = _run(
        ["bounds", "--domain", "square", "--n", "4", "--k", "2", "--refs", str(refs)], capsys
    )
    assert code == 0
    row = _parse_csv(out)[0]
    # lambda_1 is printed at 7 significant digits, so compare at the
    # resolution the rounding leaves intact
    lam1 = float(row["lambda_1"])
    assert float(row["abs_err_1"]) == pytest.approx(abs(lam1 - 0.25), abs=1e-7)
    # only one reference given: the second error column stays empty
    assert row["abs_err_2"] == ""
    assert float(row["total_err"]) == pytest.approx(abs(lam1 - 0.25), abs=1e-7)


@pytest.mark.parametrize(
    "text,entry",
    [
        ('{"unit_square": {}}', "'unit_square'"),
        ("[1, 2]", "list"),
        ('{"unit_square": {"values": 3}}', "'unit_square'"),
        ('{"unit_square": {"values": [NaN]}}', "'unit_square'"),
        ('{"unit_square": ', "not valid JSON"),
        ('{"l_shape": {"values": [0.3]}}', "no entry for 'unit_square'"),
    ],
)
def test_bounds_bad_refs_file_is_an_error_message(tmp_path, capsys, text, entry):
    """A reference file of the wrong shape, or one without the run's
    domain, exits 1 with one error line naming the file and the bad or
    missing entry, not a traceback or a report without error columns."""
    refs = tmp_path / "refs.json"
    refs.write_text(text)
    code, out, err = _run(
        ["bounds", "--domain", "square", "--n", "2", "--k", "1", "--refs", str(refs)], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(refs) in err and entry in err


def test_bounds_json_format(capsys):
    code, out, _ = _run(
        ["bounds", "--domain", "square", "--n", "4", "--k", "2", "--format", "json",
         "--method", "both"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 2
    assert doc["references"][:1] == [0.240079]
    assert len(doc["levels"]) == 2
    methods = {level["method"] for level in doc["levels"]}
    assert methods == {"conforming", "cr"}
    conforming = next(l for l in doc["levels"] if l["method"] == "conforming")
    assert conforming["constants"]["cert_const"] > conforming["constants"]["proj_const"]
    assert set(doc["plot_data"]) == {"conforming", "cr"}
    assert doc["plot_data"]["conforming"]["dof"] == [25]


def test_bounds_dump_matrices(tmp_path, capsys):
    dump = tmp_path / "matrices"
    code, _, _ = _run(
        ["bounds", "--domain", "square", "--n", "2", "--k", "1",
         "--dump-matrices", str(dump), "--out", str(tmp_path / "o.csv")],
        capsys,
    )
    assert code == 0
    names = {p.name for p in dump.iterdir()}
    assert names == {
        "stiffness.txt", "mass.txt", "vertex_boundary_mass.txt",
        "boundary_coupling.txt", "boundary_mass.txt", "trace_map.txt",
        "broken_mass.txt", "broken_coupling.txt", "rt_mass.txt",
        "div_coupling.txt", "broken_moments.txt",
    }
    # triplets reconstruct the stiffness matrix exactly
    lines = (dump / "stiffness.txt").read_text().strip().splitlines()
    rows_, cols_ = map(int, lines[0].lstrip("# ").split())
    dense = np.zeros((rows_, cols_))
    for line in lines[1:]:
        i, j, v = line.split()
        dense[int(i), int(j)] = float(v)
    expected, _ = assemble_p1(uniform_square_mesh(2))
    assert np.array_equal(dense, expected.toarray())


def test_bounds_usage_errors(tmp_path, capsys):
    assert _run(["bounds", "--domain", "square", "--n", "0"], capsys)[0] == 2
    assert _run(["bounds", "--domain", "square"], capsys)[0] == 2
    assert _run(["bounds"], capsys)[0] == 2
    assert _run(["bounds", "--domain", "square", "--n", "4", "--k", "0"], capsys)[0] == 2
    missing = str(tmp_path / "missing.json")
    code, _, err = _run(["bounds", "--mesh", missing], capsys)
    assert code == 1
    assert "error:" in err
    # the mesh is read before --k is checked
    code, _, err = _run(["bounds", "--mesh", missing, "--k", "0"], capsys)
    assert code == 1 and "cannot read mesh file" in err


def test_bounds_dump_matrices_needs_conforming(tmp_path, capsys):
    dump = tmp_path / "matrices"
    code, out, err = _run(
        ["bounds", "--domain", "square", "--n", "2", "--method", "cr",
         "--dump-matrices", str(dump)],
        capsys,
    )
    assert code == 2 and out == ""
    assert err == "error: --dump-matrices needs --method conforming or both\n"
    assert not dump.exists()


@pytest.mark.parametrize("extra", [["--domain", "lshape", "--n", "8"], ["--n", "8"],
                                   ["--domain", "square"]])
def test_bounds_mesh_excludes_domain_and_n(tmp_path, capsys, extra):
    mesh_file = tmp_path / "m.json"
    assert _run(["mesh", "--domain", "square", "--n", "2", "--out", str(mesh_file)], capsys)[0] == 0
    code, out, err = _run(["bounds", "--mesh", str(mesh_file)] + extra, capsys)
    assert code == 2 and out == ""
    assert err == "error: --mesh excludes --domain and --n\n"


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["bounds", "--domain", "lshape", "--n", "4", "--method", "both"],
         "cli_bounds_lshape4_both"),
        (["convergence", "--domain", "square", "--levels", "2,4,8", "--method", "both"],
         "cli_convergence_square_2_4_8_both"),
    ],
)
def test_output_matches_golden_files(argv, golden, capsys):
    """The committed CSV and JSON reports: CSV byte for byte, JSON by
    structure and key order with numbers to 1e-12 relative."""
    code, out, _ = _run(argv, capsys)
    assert code == 0
    assert out.encode() == (_GOLDEN / f"{golden}.csv").read_bytes()
    code, out, _ = _run(argv + ["--format", "json"], capsys)
    assert code == 0
    _assert_same_doc(json.loads(out), json.loads((_GOLDEN / f"{golden}.json").read_text()))


# --- convergence command ------------------------------------------------------


def test_convergence_csv(capsys):
    code, out, _ = _run(
        ["convergence", "--domain", "square", "--levels", "4,8", "--k", "3",
         "--method", "both"],
        capsys,
    )
    assert code == 0
    rows = _parse_csv(out)
    assert [r["method"] for r in rows] == ["conforming", "conforming", "cr", "cr"]
    assert [r["n"] for r in rows] == ["4", "8", "4", "8"]
    for first_of_method in (rows[0], rows[2]):
        assert first_of_method["order_upper_1"] == ""
    for second_of_method in (rows[1], rows[3]):
        order = float(second_of_method["order_upper_1"])
        assert 1.5 <= order <= 2.5
        lower_order = float(second_of_method["order_lower_1"])
        assert 0.5 <= lower_order <= 1.5
    # conforming eigenvalues decrease under refinement toward the truth
    assert float(rows[1]["lambda_1"]) < float(rows[0]["lambda_1"])


def test_convergence_usage_errors(capsys):
    assert _run(["convergence", "--domain", "square", "--levels", "4"], capsys)[0] == 2
    assert _run(["convergence", "--domain", "square", "--levels", "8,4"], capsys)[0] == 2
    assert _run(["convergence", "--domain", "square", "--levels", "4,x"], capsys)[0] == 2
    assert _run(["convergence", "--domain", "square", "--levels", "4,8", "--k", "0"], capsys)[0] == 2
    # --k is checked before the reference file is read
    code, _, err = _run(
        ["convergence", "--domain", "square", "--levels", "2,4", "--k", "0", "--refs", "BAD"],
        capsys,
    )
    assert code == 2 and err == "error: --k must be >= 1, got 0\n"


def test_convergence_json_orders(capsys):
    code, out, _ = _run(
        ["convergence", "--domain", "square", "--levels", "2,4", "--k", "1",
         "--method", "conforming", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    orders = doc["orders"]["conforming"]
    assert len(orders) == 1
    assert orders[0]["upper"][0] is not None
    assert doc["plot_data"]["conforming"]["h"][0] == pytest.approx(np.sqrt(2.0) / 2.0)


def test_certify_level_computes_trace_constants_once_per_mesh(monkeypatch):
    calls = []
    for name in ("trace_constant_bound", "trace_constant_simplified"):
        original = getattr(bounds, name)
        monkeypatch.setattr(
            bounds, name, lambda mesh, _f=original, _n=name: calls.append(_n) or _f(mesh)
        )
    results = certify_level(uniform_square_mesh(4), 2, ("conforming", "cr"), None)
    assert sorted(calls) == ["trace_constant_bound", "trace_constant_simplified"]
    assert results[0].constants.trace_const == results[1].constants.trace_const
    assert results[0].constants.trace_simple == results[1].constants.trace_simple
