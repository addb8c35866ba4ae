"""The benchmark's traced run still finds every function it wraps.

perfbench/steklov_bench/layers.py binds its span wrappers by module and
qualified name; a renamed or deleted function would only show up there
as "unbound" in the traced record.  This keeps the two in step.
"""

import sys
from pathlib import Path

import steklov_certify.assembly as assembly
import steklov_certify.cli as cli
import steklov_certify.hypercircle as hypercircle
import steklov_certify.linalg as linalg
from steklov_certify.mesh import uniform_square_mesh

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


def test_threaded_kappa_keeps_the_span_stack_in_order(monkeypatch):
    """The tracer keeps one span stack.  constant()'s worker threads
    call the untraced CholeskyFactor._solve, so with two workers every
    span still opens and closes in order on the calling thread."""
    monkeypatch.setattr(hypercircle, "_WORKERS", 2)
    originals = (linalg.CholeskyFactor.solve, hypercircle.EquilibrationSolver.constant,
                 cli.certify_level)
    tracer = spans.Tracer()
    restore, missing = layers.install(tracer)
    try:
        assert missing == []
        system = assembly.assemble_system(uniform_square_mesh(16))  # 16 blocks
        hypercircle.EquilibrationSolver(system).constant()
        cli.certify_level(uniform_square_mesh(4), 2, ("conforming", "cr"), None, n=4)
    finally:
        restore()
    assert (linalg.CholeskyFactor.solve, hypercircle.EquilibrationSolver.constant,
            cli.certify_level) == originals
    names = {span.name for span in tracer.spans}
    assert {"hypercircle.constant", "linalg.cholesky_solve", "cli.certify_level"} <= names
    assert all(span.end >= span.start for span in tracer.spans)
