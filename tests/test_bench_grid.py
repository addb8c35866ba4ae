"""bench/grid.py, the script that writes the BENCH_*.json records: one
child run of each kind, in a subprocess, on this source tree."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.sparse as sp

from steklov_certify import assemble_system, uniform_lshape_mesh, uniform_square_mesh
from steklov_certify.cli import certify_level

ROOT = Path(__file__).resolve().parent.parent


def _child(kind, level):
    """The JSON record on the last line of one grid.py child run."""
    argv = [sys.executable, "bench/grid.py", "--child", kind, "--src", "src", "--level", level]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def memory_record():
    return _child("memory", "square:4")


@pytest.fixture(scope="module")
def timed_record():
    return _child("timed", "lshape:4")


def test_memory_child_reads_the_sizes_of_a_fresh_system(memory_record):
    system = assemble_system(uniform_square_mesh(4))
    dofs = system.dofs
    assert memory_record["triangles"] == system.mesh.num_triangles
    assert memory_record["dofs"] == {
        "p1": dofs.dim_p1,
        "broken": dofs.dim_broken,
        "rt": dofs.dim_rt,
        "trace": dofs.dim_trace,
        "cr": len(dofs.rt_edge_dofs),
    }
    held = {name: a.nnz for name, a in vars(system).items() if sp.issparse(a)}
    assert memory_record["system_nnz"] == held
    assert memory_record["tracemalloc_peak_mb"] > 0.0


def test_timed_child_binds_every_layer_and_certifies_both_methods(timed_record):
    assert timed_record["unbound_layers"] == []
    results = certify_level(uniform_lshape_mesh(4), 3, ("conforming", "cr"), None, n=4)
    assert timed_record["dof"] == {r.method: r.dof for r in results}
    assert timed_record["wall_s"] > 0.0
    assert "cli.certify_level" in timed_record["stage_self_s"]
