"""The benchmark's traced run still finds every function it wraps.

perfbench/steklov_bench/layers.py binds its span wrappers by module and
qualified name; a renamed or deleted function would only show up there
as "unbound" in the traced record.  This keeps the two in step.
"""

import sys
from pathlib import Path

import steklov_certify.assembly as assembly
import steklov_certify.hypercircle as hypercircle

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from steklov_bench import layers, spans  # noqa: E402


def test_every_traced_layer_is_bound_and_restored():
    originals = (assembly.assemble_system, hypercircle.EquilibrationSolver.constant)
    restore, missing = layers.install(spans.Tracer())
    try:
        assert missing == []
        assert assembly.assemble_system is not originals[0]
    finally:
        restore()
    assert (assembly.assemble_system, hypercircle.EquilibrationSolver.constant) == originals
