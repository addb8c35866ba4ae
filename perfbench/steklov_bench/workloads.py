"""The three workloads: what is set up, what is timed and how it is checked.

square_conforming_ladder and lshape_cr_ladder run the paper's certified
tables through the CLI, in-process; each call is checked against the
committed CSV and the reference eigenvalues.  Their inputs are the fixed
refinement ladders, so the seed does not change them.

square_flux_audit factors the unit square n = 32 once and then runs a
closed loop with one client: each op draws boundary data from the seed,
solves the conforming and flux problems and evaluates the divergence gap
and the guaranteed error with both routes.  It uses the same hypercircle
and linalg layers as the conforming ladder, one right-hand side at a time
instead of s columns.
"""

from __future__ import annotations

import contextlib
import io
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from steklov_certify import assembly, bounds, cli, hypercircle
from steklov_certify import mesh as meshes

from . import checks, stats

EXPECTED = Path(__file__).resolve().parent.parent / "expected"
# Certifies both methods on a tiny mesh so that lazy imports and first
# calls are paid during set-up.
WARMUP_ARGV = ("bounds", "--domain", "square", "--n", "2", "--k", "1", "--method", "both")
MAX_PROBLEMS = 20


@dataclass
class Tally:
    """Attempted and failed ops of a run, with the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS - len(self.problems)])


def run_cli(argv):
    """Run the CLI in this process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def warm_up():
    code, _ = run_cli(WARMUP_ARGV)
    if code != 0:
        raise RuntimeError(f"warm-up certify exited with {code}")


def _new_trace(tracer, kind):
    if tracer is not None:
        tracer.new_trace(kind)


@dataclass(frozen=True)
class Ladder:
    """One convergence table: the timed unit is one CLI call."""

    name: str
    domain: str
    domain_tag: str
    levels: str
    method: str

    @property
    def argv(self):
        return (
            "convergence", "--domain", self.domain, "--levels", self.levels,
            "--k", "3", "--method", self.method,
        )

    def prepare(self, seed):
        """Nothing beyond the imports and the warm-up certify."""

    def call(self, tally):
        start = time.perf_counter()
        try:
            code, text = run_cli(self.argv)
        except Exception as exc:  # an op that raises is counted, not fatal
            traceback.print_exc()
            tally.record([f"{type(exc).__name__}: {exc}"])
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if code != 0:
            tally.record([f"exit code {code}"])
        else:
            expected = (EXPECTED / f"{self.name}.csv").read_text()
            references = bounds.reference_eigenvalues(self.domain_tag)
            tally.record(checks.check_ladder(text, expected, references, self.method))
        return elapsed

    def timed(self, state, seed, seconds, tally):
        """Whole tables until the next one would end after `seconds`."""
        start = time.perf_counter()
        units = [self.call(tally)]
        while time.perf_counter() - start + units[-1] <= seconds:
            units.append(self.call(tally))
        return {"unit_s": units}

    def region(self, seed, tally, tracer=None):
        """The traced region: one table."""
        _new_trace(tracer, "op")
        return self.call(tally)


@dataclass
class AuditState:
    system: object
    solver: object
    kappa: float


@dataclass(frozen=True)
class Audit:
    """Closed-loop flux audit on the unit square with one client."""

    name: str = "square_flux_audit"
    n: int = 32
    batch: int = 10
    warmup_ops: int = 3
    trace_ops: int = 40

    def prepare(self, seed):
        mesh = meshes.uniform_square_mesh(self.n)
        system = assembly.assemble_system(mesh)
        solver = hypercircle.EquilibrationSolver(system)
        return AuditState(system, solver, solver.constant().value)

    def op(self, state, rng, tally, tracer=None):
        system, solver = state.system, state.solver
        g = rng.standard_normal(system.dofs.dim_trace)
        _new_trace(tracer, "op")
        start = time.perf_counter()
        try:
            neumann = solver.solve_neumann(g)
            flux = solver.solve_flux(g, neumann)
            gap = solver.divergence_gap(neumann, flux)
            error = solver.error_norm(neumann, flux, check_routes=True)
        except Exception as exc:  # an op that raises is counted, not fatal
            traceback.print_exc()
            tally.record([f"{type(exc).__name__}: {exc}"])
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        problems = checks.check_audit_op(
            volume=float(np.sum(system.mass @ neumann.coefficients)),
            surface=system.boundary_integral(g),
            mean_shift=flux.mean_shift,
            gap=gap,
            error=error,
            kappa=state.kappa,
            data_norm=system.boundary_norm(g),
        )
        tally.record(problems)
        return elapsed

    def timed(self, state, seed, seconds, tally):
        """Batches of data until `seconds` have passed and p95 is allowed."""
        rng = np.random.default_rng(seed)
        for _ in range(self.warmup_ops):
            self.op(state, rng, tally)
        needed = stats.samples_needed(0.95)
        ops, batches = [], []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(ops) < needed:
            batch = [self.op(state, rng, tally) for _ in range(self.batch)]
            ops.extend(batch)
            batches.append(sum(batch))
        return {"unit_s": batches, "op_ms": [1e3 * t for t in ops]}

    def region(self, seed, tally, tracer=None):
        """The traced region: set-up and a fixed number of data."""
        start = time.perf_counter()
        _new_trace(tracer, "setup")
        state = self.prepare(seed)
        rng = np.random.default_rng(seed)
        for _ in range(self.trace_ops):
            self.op(state, rng, tally, tracer)
        return time.perf_counter() - start


WORKLOADS = {
    w.name: w
    for w in (
        Ladder("square_conforming_ladder", "square", "unit_square", "8,16,32,64", "conforming"),
        Ladder("lshape_cr_ladder", "lshape", "l_shape", "4,8,16,32", "cr"),
        Audit(),
    )
}
