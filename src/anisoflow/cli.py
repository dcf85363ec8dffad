"""Command-line front end: config parsing, dispatch, and artifacts.

Configs are INI-style text (hand-editable, diffable); see the schema below
for the accepted sections and keys.  Every run writes a ``manifest.txt``
recording the config hash, the semiconvexity constant, sampled flux
constants, and the three step-size regime flags, so study output is
self-describing.  Numeric output uses 17 significant digits throughout,
which round-trips doubles exactly.

Exit codes: 0 success, 1 config error (the message names the offending
key; every input is built and checked before anything is written), 2 solver
or study failure (diagnostics that exist are still written).
"""

import argparse
import configparser
import dataclasses
import functools
import hashlib
import os
import sys

import numpy as np

from . import studies
from .anisotropy import (IsotropicAnisotropy, MatrixFamilyAnisotropy,
                         estimate_constants)
from .control import (ControlProblem, DistributedTarget, FinalTimeTarget,
                      OptimizeOptions, optimize, write_history)
from .grid import build_grid, load_field, write_field
from .potential import (DoubleWell, MoreauYosida, TruncatedPotential,
                        ZeroPotential)
from .stepper import (NonConvergence, StepConfig, TimePartition,
                      UniquenessViolation, check_energy_stability,
                      solve_trajectory, step_regimes, write_diagnostics)

COMMANDS = ("simulate", "optimize", "verify-energy", "study-tau",
            "study-bounds", "study-lipschitz", "study-control")
# the report kind of each study command, which keys its minimum ladder
_STUDY_KINDS = {"study-tau": "tau_convergence",
                "study-bounds": "uniform_bounds",
                "study-lipschitz": "lipschitz",
                "study-control": "control_convergence"}

# accepted sections and keys (lowercase; configparser lowercases on read)
_SCHEMA = {
    "grid": {"dim", "nodes", "lengths"},
    "time": {"t", "n", "breakpoints"},
    "anisotropy": {"kind", "delta", "matrices"},
    "potential": {"kind", "penalty", "cutoff"},
    "control": {"lambda", "target", "target_file", "target_dir",
                "y0", "y0_file", "forcing", "forcing_dir"},
    "solver": {"newton_tol", "max_newton_iters", "armijo_slope",
               "armijo_backtrack", "armijo_min_step", "linear_tol",
               "enforce_uniqueness", "max_descent_iters"},
    "optimize": {"max_iters", "grad_tol", "lbfgs", "lbfgs_memory"},
    "study": {"levels", "rate_min", "rate_max", "ratio_window",
              "growth_tol", "ratio_growth", "pairs", "perturbation_scale"},
    "output": {"directory", "seed"},
}


class ConfigError(Exception):
    def __init__(self, key, message):
        super().__init__(f"config error at '{key}': {message}")
        self.key = key


# -- built-in initial data ----------------------------------------------------

def constant_field(grid, value):
    return np.full(grid.n_nodes, float(value))


def random_uniform_field(grid, low, high, seed):
    rng = np.random.default_rng(int(seed))
    return rng.uniform(float(low), float(high), grid.n_nodes)


def tanh_circle_field(grid, center, radius, width):
    """Diffuse circular interface: tanh((radius - |x - center|) / width).

    Values lie strictly inside (-1, 1), positive inside the circle, with
    the zero level set on it (up to grid resolution).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size != grid.dim:
        raise ValueError(f"center needs {grid.dim} components, got {center.size}")
    dist = np.linalg.norm(grid.nodes - center, axis=1)
    return np.tanh((radius - dist) / width)


def builtin_initializer(spec, grid):
    """Build a field from an initializer string.

    Accepted forms (argument counts for a d-dimensional grid):
      constant(c)
      random_uniform(low, high, seed)
      tanh_circle(c1[, c2], radius, width)
    """
    spec = spec.strip()
    if "(" not in spec or not spec.endswith(")"):
        raise ValueError(f"malformed initializer '{spec}'")
    name, _, rest = spec.partition("(")
    name = name.strip()
    args = [a.strip() for a in rest[:-1].split(",") if a.strip()]
    if name == "constant":
        if len(args) != 1:
            raise ValueError("constant takes one argument")
        return constant_field(grid, float(args[0]))
    if name == "random_uniform":
        if len(args) != 3:
            raise ValueError("random_uniform takes (low, high, seed)")
        return random_uniform_field(grid, float(args[0]), float(args[1]),
                                    int(args[2]))
    if name == "tanh_circle":
        if len(args) != grid.dim + 2:
            raise ValueError(
                f"tanh_circle takes (center[{grid.dim}], radius, width)")
        center = [float(a) for a in args[:grid.dim]]
        return tanh_circle_field(grid, center, float(args[-2]), float(args[-1]))
    raise ValueError(f"unknown initializer '{name}'")


# -- config loading -----------------------------------------------------------

def load_config(path, overrides=()):
    """Parse and schema-check a config file, applying section.key overrides."""
    if not os.path.exists(path):
        raise ConfigError(path, "config file does not exist")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(path, f"unparseable config: {exc}") from exc
    cfg = {s: dict(parser[s]) for s in parser.sections()}
    for item in overrides:
        key, eq, value = item.partition("=")
        section, dot, name = key.partition(".")
        if not (section and name and dot and eq):
            raise ConfigError(item, "overrides look like section.key=value")
        cfg.setdefault(section.lower(), {})[name.lower()] = value
    for section, keys in cfg.items():
        if section not in _SCHEMA:
            raise ConfigError(section, "unknown section")
        for key in keys:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")
    return cfg


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}
_KIND_NAMES = {float: "a number", int: "an integer", bool: "a boolean"}


def _get(cfg, section, key, kind=str, default=None, required=False):
    """Read one value and convert it to ``kind`` (str, float, int or bool)."""
    raw = cfg.get(section, {}).get(key.lower())
    if raw is None:
        if required:
            raise ConfigError(f"{section}.{key}", "required key is missing")
        return default
    try:
        if kind is bool:
            return _BOOLS[raw.strip().lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{section}.{key}",
                          f"not {_KIND_NAMES[kind]}: '{raw}'")


# INI keys named differently from the dataclass field they set
_FIELD_NAMES = {"linear_tol": "linear_rtol", "lbfgs": "use_lbfgs"}


def _from_section(cfg, section, cls):
    """Build a settings dataclass from the keys given in one section.

    Field types come from the dataclass and its ``__post_init__``
    validates the values; unset fields keep the dataclass defaults.
    """
    kinds = {f.name: f.type for f in dataclasses.fields(cls)}
    keys = {_FIELD_NAMES.get(key, key): key for key in cfg.get(section, {})}
    kwargs = {name: _get(cfg, section, key, kinds[name])
              for name, key in keys.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        # validation messages start with the offending field's name
        name = str(exc).split()[0]
        raise ConfigError(f"{section}.{keys.get(name, name)}", str(exc))


def _floats(raw):
    return [float(x) for x in raw.replace(",", " ").split()]


def _build_grid(cfg):
    dim = _get(cfg, "grid", "dim", int, required=True)
    try:
        nodes = [int(x) for x in _get(cfg, "grid", "nodes", required=True)
                 .replace(",", " ").split()]
        lengths = _floats(_get(cfg, "grid", "lengths", required=True))
        return build_grid(dim, nodes, lengths)
    except ValueError as exc:
        raise ConfigError("grid", str(exc))


def _build_partition(cfg):
    raw_breaks = _get(cfg, "time", "breakpoints")
    if raw_breaks is not None:
        try:
            return TimePartition(_floats(raw_breaks))
        except ValueError as exc:
            raise ConfigError("time.breakpoints", str(exc))
    final_time = _get(cfg, "time", "T", float, required=True)
    n_steps = _get(cfg, "time", "N", int, required=True)
    try:
        return TimePartition.uniform(final_time, n_steps)
    except ValueError as exc:
        raise ConfigError("time", str(exc))


def _build_anisotropy(cfg, dim):
    kind = _get(cfg, "anisotropy", "kind", default="isotropic").strip().lower()
    if kind == "isotropic":
        return IsotropicAnisotropy()
    if kind == "matrix_family":
        raw = _get(cfg, "anisotropy", "matrices", required=True)
        delta = _get(cfg, "anisotropy", "delta", float, default=0.0)
        mats = []
        for chunk in raw.split(";"):
            vals = _floats(chunk)
            if len(vals) != dim * dim:
                raise ConfigError("anisotropy.matrices",
                                  f"each matrix needs {dim * dim} row-major "
                                  f"entries, got {len(vals)}")
            mats.append(np.array(vals).reshape(dim, dim))
        try:
            return MatrixFamilyAnisotropy(mats, delta)
        except ValueError as exc:
            raise ConfigError("anisotropy", str(exc))
    raise ConfigError("anisotropy.kind", f"unknown kind '{kind}'")


def _build_potential(cfg):
    kind = _get(cfg, "potential", "kind", default="double_well").strip().lower()
    if kind == "double_well":
        return DoubleWell()
    if kind == "moreau_yosida":
        penalty = _get(cfg, "potential", "penalty", float, required=True)
        try:
            return MoreauYosida(penalty)
        except ValueError as exc:
            raise ConfigError("potential.penalty", str(exc))
    if kind == "truncated":
        cutoff = _get(cfg, "potential", "cutoff", float, required=True)
        try:
            return TruncatedPotential(DoubleWell(), cutoff)
        except ValueError as exc:
            raise ConfigError("potential.cutoff", str(exc))
    if kind == "zero":
        return ZeroPotential()
    raise ConfigError("potential.kind", f"unknown kind '{kind}'")


def _load_file(key, path, grid):
    """The field in the file a config key names, checked against ``grid``."""
    if not os.path.exists(path):
        raise ConfigError(key, f"referenced file '{path}' does not exist")
    try:
        return load_field(path, grid)
    except (OSError, ValueError) as exc:
        raise ConfigError(key, str(exc))


def _initializer(key, spec, grid):
    try:
        return grid.check_field(builtin_initializer(spec, grid))
    except ValueError as exc:
        raise ConfigError(key, str(exc))


def _load_y0(cfg, grid):
    spec = _get(cfg, "control", "y0")
    path = _get(cfg, "control", "y0_file")
    if (spec is None) == (path is None):
        raise ConfigError("control.y0",
                          "give exactly one of control.y0, control.y0_file")
    if path is not None:
        return _load_file("control.y0_file", path, grid)
    return _initializer("control.y0", spec, grid)


def _load_per_interval(key, directory, prefix, grid, n_steps):
    """One field per interval j = 1..N from ``<prefix>_<j:04d>.field``."""
    return np.array([
        _load_file(key, os.path.join(directory, f"{prefix}_{j:04d}.field"),
                   grid) for j in range(1, n_steps + 1)])


def _load_forcing(cfg, grid, partition):
    """Forcing fields for simulate/study runs; zero by default."""
    directory = _get(cfg, "control", "forcing_dir")
    spec = _get(cfg, "control", "forcing", default="zero")
    n_steps = partition.n_steps
    if directory is not None:
        return _load_per_interval("control.forcing_dir", directory, "control",
                                  grid, n_steps)
    if spec.strip().lower() == "zero":
        return np.zeros((n_steps, grid.n_nodes))
    return np.tile(_initializer("control.forcing", spec, grid), (n_steps, 1))


def _control_problem(cfg, grid, partition, y0, aniso, pot):
    kind = _get(cfg, "control", "target", required=True).strip().lower()
    if kind == "final_time":
        path = _get(cfg, "control", "target_file", required=True)
        target = FinalTimeTarget(_load_file("control.target_file", path, grid))
    elif kind == "distributed":
        directory = _get(cfg, "control", "target_dir", required=True)
        target = DistributedTarget(_load_per_interval(
            "control.target_dir", directory, "target", grid, partition.n_steps))
    else:
        raise ConfigError("control.target", f"unknown target kind '{kind}'")
    lam = _get(cfg, "control", "lambda", float, required=True)
    try:
        return ControlProblem(grid, partition, y0, target, lam, aniso, pot)
    except ValueError as exc:
        # the fields are checked above, so only lambda is left to reject
        raise ConfigError("control.lambda", str(exc))


def _config_hash(cfg):
    canon = []
    for section in sorted(cfg):
        for key in sorted(cfg[section]):
            canon.append(f"{section}.{key}={cfg[section][key]}")
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()


def _write_manifest(out_dir, command, cfg, grid, partition, aniso, c_psi,
                    regimes, seed):
    consts = estimate_constants(aniso, sample_count=200, radius=2.0,
                                dim=grid.dim, seed=seed)
    lines = [
        f"command={command}",
        f"config_hash={_config_hash(cfg)}",
        f"seed={seed}",
        f"grid_dim={grid.dim}",
        f"grid_nodes={','.join(str(n) for n in grid.shape)}",
        f"grid_lengths={','.join(f'{x:.17g}' for x in grid.lengths)}",
        f"tau_max={partition.tau_max:.17g}",
        f"semiconvexity={c_psi:.17g}",
        f"monotonicity_estimate={consts.monotonicity:.17g}",
        f"growth_estimate={consts.growth:.17g}",
        f"tau_below_uniqueness_bound={regimes['uniqueness']}",
        f"tau_within_lipschitz_bound={regimes['lipschitz']}",
        f"tau_within_energy_decay_bound={regimes['energy_decay']}",
    ]
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


def _write_states(out_dir, grid, states):
    for j, state in enumerate(states):
        write_field(os.path.join(out_dir, f"state_{j:04d}.field"), grid, state)


def _study_perturbation_pairs(cfg, grid, y0, forcing, seed):
    count = _get(cfg, "study", "pairs", int, default=5)
    scale = _get(cfg, "study", "perturbation_scale", float, default=0.1)
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        dy0 = scale * rng.uniform(-1.0, 1.0, grid.n_nodes)
        du = scale * rng.uniform(-1.0, 1.0, forcing.shape)
        pairs.append(((y0, forcing), (y0 + dy0, forcing + du)))
    return pairs


def run(command, config_path, overrides=(), out_dir=None, seed=None):
    """Execute one CLI command; returns the process exit status."""
    if command not in COMMANDS:
        print(f"unknown command '{command}'; expected one of {COMMANDS}",
              file=sys.stderr)
        return 1
    try:
        cfg = load_config(config_path, overrides)
        grid = _build_grid(cfg)
        partition = _build_partition(cfg)
        aniso = _build_anisotropy(cfg, grid.dim)
        pot = _build_potential(cfg)
        step_config = _from_section(cfg, "solver", StepConfig)
        opts = _from_section(cfg, "optimize", OptimizeOptions)
        c_psi = pot.semiconvexity()
        bounds, regimes = step_regimes(c_psi, partition.tau_max)
        if step_config.enforce_uniqueness and not regimes["uniqueness"]:
            raise ConfigError(
                "time", f"tau_max = {partition.tau_max:g} >= 1/c = "
                f"{bounds['uniqueness']:g}: the implicit step is only "
                "guaranteed unique for tau < 1/c (c = semiconvexity "
                "constant); refine time.N or disable solver.enforce_uniqueness")
        if out_dir is None:
            out_dir = _get(cfg, "output", "directory", default="out")
        if seed is None:
            seed = _get(cfg, "output", "seed", int, default=0)
        if (command in ("study-tau", "study-bounds", "study-lipschitz")
                and np.ptp(partition.tau_steps) > 1e-12 * partition.tau_max):
            raise ConfigError(
                "time.breakpoints", f"{command} refines uniform partitions "
                "only; give time.T and time.N instead")
        if (command == "study-lipschitz"
                and partition.tau_max > bounds["lipschitz"] + 1e-15):
            raise ConfigError(
                "time", f"tau_max = {partition.tau_max:g} exceeds the "
                f"stability-study bound 1/(1+2c) = {bounds['lipschitz']:g}")
        if command in _STUDY_KINDS:
            levels = _get(cfg, "study", "levels", int, default=4)
            minimum = studies.MIN_LEVELS[_STUDY_KINDS[command]]
            if levels < minimum:
                raise ConfigError("study.levels", f"{command} needs at least "
                                  f"{minimum} ladder levels, got {levels}")
        if command == "verify-energy":
            forcing_spec = _get(cfg, "control", "forcing", default="zero")
            if forcing_spec.strip().lower() != "zero":
                raise ConfigError("control.forcing",
                                  "the energy check requires zero forcing")
            if _get(cfg, "control", "forcing_dir") is not None:
                raise ConfigError("control.forcing_dir",
                                  "the energy check requires zero forcing")

        y0 = _load_y0(cfg, grid)
        if command in ("optimize", "study-control"):
            problem = _control_problem(cfg, grid, partition, y0, aniso, pot)
        elif command != "verify-energy":
            forcing = _load_forcing(cfg, grid, partition)
        # each study bound to all its inputs, run after the manifest
        final_time, base_n = partition.final_time, partition.n_steps
        if command == "study-tau":
            study = functools.partial(
                studies.tau_convergence_study, grid, aniso, pot, y0,
                final_time, base_n, levels, control=forcing,
                config=step_config, rate_window=(
                    _get(cfg, "study", "rate_min", float, default=0.8),
                    _get(cfg, "study", "rate_max", float, default=1.2)))
        elif command == "study-bounds":
            study = functools.partial(
                studies.uniform_bound_study, grid, aniso, pot, y0,
                final_time, base_n, levels, control=forcing,
                config=step_config, ratio_window=_get(
                    cfg, "study", "ratio_window", float, default=1.5),
                growth_tol=_get(cfg, "study", "growth_tol", float, default=1.05))
        elif command == "study-lipschitz":
            study = functools.partial(
                studies.lipschitz_study, grid, aniso, pot,
                _study_perturbation_pairs(cfg, grid, y0, forcing, seed),
                final_time, base_n, levels, config=step_config,
                growth=_get(cfg, "study", "ratio_growth", float, default=1.5))
        elif command == "study-control":
            # the target is constant on each interval, so its injection to
            # the finest level restricts back to it on every level
            target = problem.target
            master = (studies.inject_time(target.values, 2**(levels - 1))
                      if isinstance(target, DistributedTarget) else None)
            study = functools.partial(
                studies.control_convergence_study, problem, levels,
                options=opts, config=step_config, distributed_master=master)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1

    os.makedirs(out_dir, exist_ok=True)
    _write_manifest(out_dir, command, cfg, grid, partition, aniso, c_psi,
                    regimes, seed)

    try:
        if command == "simulate":
            try:
                traj = solve_trajectory(grid, aniso, pot, y0, forcing,
                                        partition, step_config)
            except (UniquenessViolation, NonConvergence) as exc:
                partial = getattr(exc, "partial_trajectory", None)
                if partial is not None:
                    write_diagnostics(partial,
                                      os.path.join(out_dir, "diagnostics.csv"))
                print(f"solver failure at step {getattr(exc, 'step_index', '?')}: "
                      f"{exc}", file=sys.stderr)
                return 2
            _write_states(out_dir, grid, traj.states)
            write_diagnostics(traj, os.path.join(out_dir, "diagnostics.csv"))
            return 0

        if command == "verify-energy":
            traj = solve_trajectory(grid, aniso, pot, y0, None, partition,
                                    step_config)
            write_diagnostics(traj, os.path.join(out_dir, "diagnostics.csv"))
            report = check_energy_stability(traj, aniso, pot)
            with open(os.path.join(out_dir, "energy_report.txt"), "w") as f:
                f.write(str(report) + "\n")
            print("PASS" if report.passed else "FAIL")
            return 0 if report.passed else 2

        if command == "optimize":
            u_star, traj, report = optimize(problem, problem.zero_control(),
                                            opts, step_config)
            write_history(report, os.path.join(out_dir, "history.csv"))
            for j in range(partition.n_steps):
                write_field(os.path.join(out_dir, f"control_{j + 1:04d}.field"),
                            grid, u_star[j])
            _write_states(out_dir, grid, traj.states)
            write_diagnostics(traj, os.path.join(out_dir, "diagnostics.csv"))
            with open(os.path.join(out_dir, "optimize_summary.txt"), "w") as f:
                f.write(f"converged={report.converged}\n"
                        f"iterations={report.iterations}\n"
                        f"final_cost={report.j_values[-1]:.17g}\n"
                        f"final_grad_norm={report.grad_norms[-1]:.17g}\n"
                        f"failed_trials={report.failed_trials}\n"
                        f"message={report.message}\n")
            return 0

        report = study()
        stem = command.replace("-", "_")
        studies.write_study_csv(report, os.path.join(out_dir, f"{stem}.csv"))
        summary = studies.summary_text(report)
        with open(os.path.join(out_dir, f"{stem}_summary.txt"), "w") as f:
            f.write(summary)
        print(summary, end="")
        return 0 if report.passed else 2

    except (UniquenessViolation, NonConvergence, ValueError,
            RuntimeError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="anisoflow",
        description="implicit phase-field solver, optimal control, and "
                    "verification studies")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="section.key=value",
                        help="override a config entry (repeatable)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for sampled diagnostics and study data")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.overrides, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
