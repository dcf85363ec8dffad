"""One benchmark process: set up a part, run its timed part, check it.

Run by ``run.py``, one fresh process per repetition of a part, so that
set-up cost and peak memory belong to one repetition.  Prints one JSON
object as its last line of output.  Modes:

* ``timed``: set up, run the timed part, check the correctness gates;
* ``setup``: set up only (extra set-up samples);
* ``traced``: like ``timed``, with every layer wrapped by the tracer, plus
  the self-test that the wrappers saw every call;
* ``cli-inputs``: write the seeded forcing snapshots of ``cli_simulate``
  and the in-process reference of its final state;
* ``cli-traced``: run the CLI in this process under the tracer.

The seed reaches the program only through the inputs generated here.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

LIPSCHITZ_REFERENCE = os.path.join(HERE, "lipschitz_reference.json")
# relative tolerance on the Lipschitz study rows against the stored
# reference; the ratios come from iterative solves at 1e-12 relative
# residual, so a correct solver change moves them far less than this
LIPSCHITZ_RTOL = 1e-6
CLI_NODES = 65
CLI_STEPS = 40
# Seeded inputs are a fixed base instance (drawn with BASE_SEED) plus a
# seeded perturbation of relative size JITTER.  Fully independent random
# states change the Newton and CG iteration counts, and with them the work
# of a run, by +-10% from seed to seed; the perturbed instances keep the
# work per run fixed while every seed still gets its own inputs and output.
BASE_SEED = 0
JITTER = 0.01
CONTROL_JITTER = 1e-6


def seeded_field(np, seed, stream, scale, shape):
    """scale * U(-1, 1): a fixed base draw perturbed by the seed.

    ``stream`` keeps the fields of one part independent of each other.
    """
    base = np.random.default_rng([BASE_SEED, stream]).uniform(-1.0, 1.0, shape)
    jitter = np.random.default_rng([seed, stream]).uniform(-1.0, 1.0, shape)
    return scale * (base + JITTER * jitter)


# -- parts -------------------------------------------------------------------
#
# Each part has a set-up (inputs from the seed), a timed part, gates
# (the outputs are correct) and a self-test (expected call counts the
# traced wrappers must reproduce).

class Relax2d:
    """README library tour at 129^2: 40 unforced steps with tau = 0.1."""

    def setup(self, af, np, seed):
        self.af = af
        self.grid = af.build_grid(2, [129, 129], [1.0, 1.0])
        self.aniso = af.MatrixFamilyAnisotropy(
            [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=1e-2)
        self.pot = af.DoubleWell()
        self.y0 = seeded_field(np, seed, 0, 0.8, self.grid.n_nodes)
        self.partition = af.TimePartition.uniform(4.0, 40)

    def run(self):
        af = self.af
        self.traj = af.solve_trajectory(self.grid, self.aniso, self.pot,
                                        self.y0, None, self.partition)
        self.report = af.check_energy_stability(self.traj, self.aniso,
                                                self.pot)

    def gates(self):
        errors = []
        if not self.report.passed:
            errors.append(f"energy stability failed: {self.report}")
        tol = self.traj.config.newton_tol
        worst = max(d.residual_inf for d in self.traj.diagnostics[1:])
        if not worst <= tol:
            errors.append(f"step residual {worst:.3e} above newton_tol {tol:g}")
        return errors

    def expected_calls(self, tracer):
        return {"stepper.steps": self.partition.n_steps}


class Control1d:
    """Acceptance criterion c09 with a seeded target and initial front."""

    levels = 4

    def setup(self, af, np, seed):
        self.af = af
        # c09's amplitude 2 and front centre 0.5, perturbed by the seed.
        # The optimizer's iteration counts respond to any perturbation: the
        # forward step count moves by +-15% over amp in [1.5, 2.5], +-7%
        # for a 1% perturbation and still +-2.5% for this one
        rng = np.random.default_rng([seed, 0])
        amp = 2.0 * (1.0 + CONTROL_JITTER * rng.uniform(-1.0, 1.0))
        centre = 0.5 + 0.1 * CONTROL_JITTER * rng.uniform(-1.0, 1.0)
        grid = af.build_grid(1, [65], [1.0])
        iso, dw = af.IsotropicAnisotropy(), af.DoubleWell()
        x = grid.nodes[:, 0]
        y0 = np.tanh((0.25 - np.abs(x - centre)) / 0.05)
        # target: final state of a 128-step run driven by amp sin(pi x)
        drive = np.tile(amp * np.sin(np.pi * x), (128, 1))
        target = af.solve_trajectory(grid, iso, dw, y0, drive,
                                     af.TimePartition.uniform(0.5, 128))
        self.problem = af.ControlProblem(
            grid, af.TimePartition.uniform(0.5, 8), y0,
            af.FinalTimeTarget(target.states[-1]), 1e-3, iso, dw)
        self.options = af.OptimizeOptions(max_iters=400, grad_tol=1e-9,
                                          use_lbfgs=True)

    def run(self):
        self.report = self.af.control_convergence_study(
            self.problem, self.levels, options=self.options)

    def gates(self):
        rep = self.report
        errors = [note for note in rep.notes
                  if "not converged" in note or "not monotone" in note]
        diffs = [row["cauchy_diff"] for row in rep.rows[1:]]
        if not all(b < a for a, b in zip(diffs, diffs[1:])):
            errors.append(f"Cauchy differences not decreasing: {diffs}")
        if not rep.passed:
            errors.append(f"study failed: {rep.notes}")
        return errors

    def expected_calls(self, tracer):
        runs = tracer.optimize_runs
        levels_steps = sum(n * (1 + evals) for n, evals in runs)
        return {
            "control.optimize.calls": self.levels,
            # one forward solve per level start, one per line-search trial
            "control.solve_state.calls":
                len(runs) + tracer.counts["control.linesearch_evals"],
            # one adjoint sweep per level start, one per accepted iterate
            "control.adjoint_solve.calls":
                len(runs) + tracer.counts["control.optimizer_iters"],
            "stepper.steps": 128 + levels_steps,
        }


class Lipschitz2d:
    """Lipschitz study on 33^2 with a truncated double well."""

    pairs = 5
    base_n = 4
    levels = 4

    def setup(self, af, np, seed):
        self.af, self.seed = af, seed
        self.grid = af.build_grid(2, [33, 33], [1.0, 1.0])
        self.aniso = af.IsotropicAnisotropy()
        self.pot = af.TruncatedPotential(af.DoubleWell(), cutoff=2.0)
        n = self.grid.n_nodes
        y0 = seeded_field(np, seed, 0, 0.8, n)
        u0 = np.zeros((self.base_n, n))
        dy0 = seeded_field(np, seed, 1, 0.1, (self.pairs, n))
        du = seeded_field(np, seed, 2, 0.1, (self.pairs, self.base_n, n))
        self.data = [((y0, u0), (y0 + dy0[k], u0 + du[k]))
                     for k in range(self.pairs)]

    def run(self):
        self.report = self.af.lipschitz_study(
            self.grid, self.aniso, self.pot, self.data, 1.0, self.base_n,
            self.levels)

    def ratios(self):
        return [row["max_ratio"] for row in self.report.rows]

    def gates(self):
        ratios = self.ratios()
        if not all(math.isfinite(r) for r in ratios):
            return [f"non-finite perturbation ratio: {ratios}"]
        with open(LIPSCHITZ_REFERENCE) as f:
            table = json.load(f)["max_ratio"]
        ref = table.get(str(self.seed))
        if ref is not None:
            if not all(math.isclose(r, q, rel_tol=LIPSCHITZ_RTOL)
                       for r, q in zip(ratios, ref)):
                return [f"ratios {ratios} differ from reference {ref}"]
            return []
        # seeds outside the table: each level must lie in the range the
        # stored seeds span, widened by a tenth on each side
        for k, r in enumerate(ratios):
            lo = min(row[k] for row in table.values())
            hi = max(row[k] for row in table.values())
            if not 0.9 * lo <= r <= 1.1 * hi:
                return [f"level {k} ratio {r} outside [{0.9 * lo}, {1.1 * hi}]"]
        return []

    def expected_calls(self, tracer):
        steps = sum(self.base_n * 2**k for k in range(self.levels))
        return {
            "stepper.steps": 2 * self.pairs * steps,
            # one Riesz solve per control row, pair and level
            "grid.dual_norm.calls": self.pairs * steps,
        }


PARTS = {"relax2d": Relax2d, "control1d": Control1d,
         "lipschitz2d": Lipschitz2d}


def cli_argv(config, forcing_dir, out_dir):
    """Arguments of the ``cli_simulate`` run after the program name."""
    return ["simulate", "--config", config,
            "--set", f"grid.nodes={CLI_NODES},{CLI_NODES}",
            "--set", "time.T=4", "--set", f"time.N={CLI_STEPS}",
            "--set", f"control.forcing_dir={forcing_dir}",
            "--out", out_dir]


def write_cli_inputs(af, np, seed, out_dir):
    """Seeded forcing snapshots plus the in-process reference final state.

    The reference solves the same problem as ``configs/relaxation.ini``
    with the benchmark's overrides, reading the forcing back from the files
    the CLI will read.
    """
    from anisoflow.cli import random_uniform_field

    grid = af.build_grid(2, [CLI_NODES, CLI_NODES], [1.0, 1.0])
    forcing_dir = os.path.join(out_dir, "forcing")
    os.makedirs(forcing_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    rows = []
    for j in range(1, CLI_STEPS + 1):
        path = os.path.join(forcing_dir, f"control_{j:04d}.field")
        af.write_field(path, grid, 0.2 * rng.uniform(-1.0, 1.0, grid.n_nodes))
        rows.append(af.load_field(path, grid))
    aniso = af.MatrixFamilyAnisotropy(
        [np.diag([1.0, 0.04]), np.diag([0.04, 1.0])], delta=1e-2)
    traj = af.solve_trajectory(
        grid, aniso, af.DoubleWell(), random_uniform_field(grid, -0.8, 0.8, 7),
        np.array(rows), af.TimePartition.uniform(4.0, CLI_STEPS))
    np.save(os.path.join(out_dir, "reference_final.npy"), traj.states[-1])


CLI_CALLS = {"cli.run.calls": 1,
             "grid.load_field.calls": CLI_STEPS,
             "grid.write_field.calls": CLI_STEPS + 1,
             "stepper.steps": CLI_STEPS}


def self_test(tracer, layers, expected):
    """Compare traced counts with counts the program reports itself.

    Every linear solve goes through the conjugate gradient solver: one per
    Newton iteration that did not fall back to descent, one per Riesz
    solve of ``dual_norm`` and one per adjoint step.
    """
    if layers["stepper.fallback_steps"]["value"] == 0:
        expected.setdefault(
            "linalg.conjugate_gradient.calls",
            layers["stepper.newton_iters"]["value"]
            + layers["grid.dual_norm.calls"]["value"]
            + tracer.counts["control.adjoint_steps"])
    errors = []
    for name, want in expected.items():
        if name in layers:
            got = layers[name]["value"]
        else:
            got = tracer.calls(name.removesuffix(".calls"))
        if got != want:
            errors.append(f"self-test: {name} = {got}, expected {want}")
    return errors


def versions(af, np):
    import scipy
    return {"anisoflow": af.__file__, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--part", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "setup", "traced", "cli-inputs",
                                 "cli-traced"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--config")
    args = parser.parse_args()

    import anisoflow as af
    import numpy as np

    result = {"errors": []}
    if args.mode == "cli-inputs":
        write_cli_inputs(af, np, args.seed, args.out)
    elif args.mode == "cli-traced":
        import anisoflow.cli as cli
        import tracer as tr
        tracer = tr.Tracer()
        tracer.counts["cli.startup_s"] = time.perf_counter() - _T0
        tr.install(tracer, af)
        status = cli.main(cli_argv(args.config,
                                   os.path.join(args.out, "forcing"),
                                   os.path.join(args.out, "run")))
        if status != 0:
            result["errors"].append(f"CLI exit status {status}")
        layers = tracer.layer_metrics()
        result["errors"] += self_test(tracer, layers, dict(CLI_CALLS))
        result["layers"] = layers
        tracer.save(os.path.join(args.out, "spans.npz"))
    else:
        import tracer as tr
        tracer = tr.Tracer()
        if args.mode == "traced":
            tr.install(tracer, af)
        else:
            tr.install_step_counter(tracer, af)
        part = PARTS[args.part]()
        part.setup(af, np, args.seed)
        t1 = time.perf_counter()
        result["setup_s"] = t1 - _T0
        if args.mode != "setup":
            setup_steps = tracer.counts["stepper.steps"]
            part.run()
            result["wall_s"] = time.perf_counter() - t1
            result["steps"] = tracer.counts["stepper.steps"] - setup_steps
            result["errors"] += part.gates()
            if args.mode == "traced":
                layers = tracer.layer_metrics()
                result["errors"] += self_test(
                    tracer, layers, part.expected_calls(tracer))
                result["layers"] = layers
                tracer.save(os.path.join(args.out, "spans.npz"))
    result.update(versions(af, np))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
