"""Command-line front end: config parsing, dispatch, and artifacts.

Configs are INI-style text (hand-editable, diffable); see the schema below
for the accepted sections and keys.  Every run writes a ``manifest.txt``
recording the config hash, the semiconvexity constant, sampled flux
constants, and the three step-size regime flags, so study output is
self-describing.  Numeric output uses 17 significant digits throughout,
which round-trips doubles exactly.

Exit codes: 0 success, 1 config error (the message names the offending
key; every input is built and checked before anything is written), 2 solver
or study failure (``failure at step j: ...`` when a step failed, with the
diagnostics of the steps before it written to ``diagnostics.csv``).
"""

import argparse
import configparser
import contextlib
import dataclasses
import functools
import hashlib
import math
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
from .stepper import (StepConfig, TimePartition, check_energy_stability,
                      solve_trajectory, step_regimes, write_diagnostics)

COMMANDS = ("simulate", "optimize", "verify-energy", "study-tau",
            "study-bounds", "study-lipschitz", "study-control")
# the report kind of each study command, which keys its minimum ladder
_STUDY_KINDS = {"study-tau": "tau_convergence",
                "study-bounds": "uniform_bounds",
                "study-lipschitz": "lipschitz",
                "study-control": "control_convergence"}

# the settings dataclass each section builds, and the INI key of each field
# named differently in the config
_SETTINGS = {"solver": StepConfig, "optimize": OptimizeOptions}
_INI_KEYS = {"linear_rtol": "linear_tol", "use_lbfgs": "lbfgs"}


def _section_fields(cls):
    """{INI key: dataclass field} of one settings section."""
    return {_INI_KEYS.get(f.name, f.name): f for f in dataclasses.fields(cls)}


_REQUIRED = object()   # the default of a key that a run reading it needs


@dataclasses.dataclass(frozen=True)
class _Key:
    convert: type = str          # str, int, float or bool
    default: object = _REQUIRED  # the value of a key not given
    kinds: dict = None           # of a kind key: kind -> keys only it reads
    replaced_by: str = None      # a key beside which this one is not read
    refused_by: tuple = None     # (command, why): it takes only the default


_ZERO_FORCING = ("verify-energy", "the energy check requires zero forcing")
# every config key, under the name a message gives it (configparser
# lowercases the names on read)
_SCHEMA = {
    "grid": {"dim": _Key(int), "nodes": _Key(), "lengths": _Key()},
    "time": {"T": _Key(float, replaced_by="time.breakpoints"),
             "N": _Key(int, replaced_by="time.breakpoints"),
             "breakpoints": _Key(default=None)},
    "anisotropy": {"kind": _Key(str, "isotropic", {
        "isotropic": (), "matrix_family": ("delta", "matrices")}),
        "delta": _Key(float, 0.0), "matrices": _Key()},
    "potential": {"kind": _Key(str, "double_well", {
        "double_well": (), "truncated": ("cutoff",),
        "moreau_yosida": ("penalty",), "zero": ()}),
        "penalty": _Key(float), "cutoff": _Key(float)},
    "control": {
        "lambda": _Key(float), "target": _Key(kinds={
            "final_time": ("target_file",), "distributed": ("target_dir",)}),
        "target_file": _Key(), "target_dir": _Key(),
        "y0": _Key(default=None), "y0_file": _Key(default=None),
        "forcing": _Key(str, "zero", replaced_by="control.forcing_dir",
                        refused_by=_ZERO_FORCING),
        "forcing_dir": _Key(default=None, refused_by=_ZERO_FORCING)},
    "study": {"levels": _Key(int, 4)},
    "output": {"directory": _Key(str, "out"), "seed": _Key(int, 0)},
    **{section: {key: _Key(f.type, f.default)
                 for key, f in _section_fields(cls).items()}
       for section, cls in _SETTINGS.items()},
}


class ConfigError(Exception):
    def __init__(self, key, message):
        super().__init__(f"config error at '{key}': {message}")


@contextlib.contextmanager
def _blame(key, errors=ValueError):
    """Re-raise a builder's ``errors`` as a ConfigError naming ``key``."""
    try:
        yield
    except errors as exc:
        raise ConfigError(key, str(exc))


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
    if not (radius > 0 and width > 0):
        raise ValueError(f"radius and width must be positive, got "
                         f"{radius} and {width}")
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
    parser = configparser.ConfigParser(interpolation=None)
    # read() would skip a file it cannot open, and the first required key
    # would take the blame
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError(
            path, f"cannot read config file: {exc.strerror}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
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
            if key not in map(str.lower, _SCHEMA[section]):
                raise ConfigError(f"{section}.{key}", "unknown key")
    return cfg


_KIND_NAMES = {float: "a number", int: "an integer", bool: "a boolean"}


def _get(cfg, key):
    """The value of ``key`` ('section.name') by its table entry."""
    section, _, name = key.partition(".")
    spec, raw = _SCHEMA[section][name], cfg.get(section, {}).get(name.lower())
    if raw is None:
        if spec.default is _REQUIRED:
            raise ConfigError(key, "required key is missing")
        return spec.default
    text = raw.strip().lower()
    if spec.kinds:
        if text not in spec.kinds:
            what = "kind" if name == "kind" else f"{name} kind"
            raise ConfigError(key, f"unknown {what} '{text}'")
        return text
    try:
        if spec.convert is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[text]
        return spec.convert(raw)
    except (KeyError, ValueError):
        raise ConfigError(key, f"not {_KIND_NAMES[spec.convert]}: '{raw}'")


def _check_read(cfg, command):
    """Reject the first given key, in table order, that ``command`` would
    not read or takes only at its default."""
    for section, keys in _SCHEMA.items():
        given = cfg.get(section, {})
        for name, spec in keys.items():
            # a control.target not given (outside the control commands)
            # reads no target key
            if spec.kinds and (name in given or spec.default is not _REQUIRED):
                kind = _get(cfg, f"{section}.{name}")
                for other in (k for ks in spec.kinds.values() for k in ks):
                    if other in given and other not in spec.kinds[kind]:
                        raise ConfigError(f"{section}.{other}", f"would be "
                                          f"ignored by {name} {kind}")
            raw = given.get(name.lower())
            if raw is None:
                continue
            if spec.replaced_by and _get(cfg, spec.replaced_by) is not None:
                raise ConfigError(f"{section}.{name}", f"would be ignored "
                                  f"alongside {spec.replaced_by}")
            if (spec.refused_by and command == spec.refused_by[0]
                    and raw.strip().lower() != spec.default):
                raise ConfigError(f"{section}.{name}", spec.refused_by[1])


def _from_section(cfg, section):
    """Build the settings dataclass of one section.  The table takes each
    field's type and default from the dataclass, whose ``__post_init__``
    validates the values."""
    cls = _SETTINGS[section]
    try:
        return cls(**{f.name: _get(cfg, f"{section}.{key}")
                      for key, f in _section_fields(cls).items()})
    except ValueError as exc:
        # validation messages start with the offending field's name
        name = str(exc).split()[0]
        raise ConfigError(f"{section}.{_INI_KEYS.get(name, name)}", str(exc))


def _floats(raw):
    return [float(x) for x in raw.replace(",", " ").split()]


def _node_counts(cfg):
    with _blame("grid.nodes"):
        return [int(x) for x in _get(cfg, "grid.nodes")
                .replace(",", " ").split()]


# the most doubles the states of one trajectory and the grid may take,
# (N_f + 1 + G) * n_nodes for the N_f steps of the finest partition a
# command solves and G below, 1 GiB.  A 4-level study-tau at 257^2 nodes and
# N = 40 takes 5.4e7.
_STATE_BUDGET = 2**27
# G, the doubles per node the grid holds by dimension: build_grid, the
# sparsity pattern and (2D, 3D) the multigrid hierarchy peaked at 30.0 per
# node in 1D (2e5 nodes), 173.1 in 2D (257^2) and 511.1 in 3D (49^3, up
# from 493.8 at 33^3) under tracemalloc, rounded up
_GRID_DOUBLES = {1: 32, 2: 176, 3: 520}


def _check_size(cfg, halvings):
    """Reject a run whose grid and the states of its finest partition, of
    N * 2^halvings steps, take more than ``_STATE_BUDGET`` doubles.  Read
    from the raw values before anything is allocated; names the first of
    grid.nodes, the time key and study.levels that breaks it with the later
    keys at their least.
    """
    counts = _node_counts(cfg)
    # a count below 1 is left for the builders to reject by name, and so
    # is a count of axes other than 1, 2 or 3
    n_nodes = math.prod(max(n, 0) for n in counts)
    per_node = _GRID_DOUBLES.get(len(counts), _GRID_DOUBLES[3])
    raw_breaks = _get(cfg, "time.breakpoints")
    if raw_breaks is None:
        time_key, n_steps = "time.N", _get(cfg, "time.N")
    else:
        time_key = "time.breakpoints"
        with _blame(time_key):
            n_steps = len(_floats(raw_breaks)) - 1
    for key, steps, shift in (("grid.nodes", 1, 0), (time_key, n_steps, 0),
                              ("study.levels", n_steps, halvings)):
        # past 64 halvings every run breaks the budget; the cap keeps a
        # huge study.levels from building a huge integer
        if (((max(steps, 0) << min(shift, 64)) + 1 + per_node) * n_nodes
                > _STATE_BUDGET):
            states = f"{steps}*2^{shift} + 1" if shift else steps + 1
            raise ConfigError(key, f"{states} states and the grid's "
                              f"{per_node} doubles per node, for {n_nodes} "
                              f"nodes, exceed the limit of 2^27 = "
                              f"{_STATE_BUDGET} doubles")


def _build_grid(cfg):
    dim = _get(cfg, "grid.dim")
    nodes = _node_counts(cfg)
    with _blame("grid.lengths"):
        lengths = _floats(_get(cfg, "grid.lengths"))
    with _blame("grid"):
        return build_grid(dim, nodes, lengths)


def _build_partition(cfg):
    raw_breaks = _get(cfg, "time.breakpoints")
    if raw_breaks is None:
        with _blame("time"):
            return TimePartition.uniform(_get(cfg, "time.T"),
                                         _get(cfg, "time.N"))
    with _blame("time.breakpoints"):
        return TimePartition(_floats(raw_breaks))


def _build_anisotropy(cfg, dim):
    if _get(cfg, "anisotropy.kind") == "isotropic":
        return IsotropicAnisotropy()
    raw = _get(cfg, "anisotropy.matrices")
    delta = _get(cfg, "anisotropy.delta")
    mats = []
    for chunk in raw.split(";"):
        with _blame("anisotropy.matrices"):
            vals = _floats(chunk)
        if len(vals) != dim * dim:
            raise ConfigError("anisotropy.matrices",
                              f"each matrix needs {dim * dim} row-major "
                              f"entries, got {len(vals)}")
        mats.append(np.array(vals).reshape(dim, dim))
    try:
        return MatrixFamilyAnisotropy(mats, delta)
    except ValueError as exc:
        # the delta check's message starts with its name; every other
        # check is on the matrices
        name = "delta" if str(exc).startswith("delta") else "matrices"
        raise ConfigError(f"anisotropy.{name}", str(exc))


def _build_potential(cfg):
    kind = _get(cfg, "potential.kind")
    if kind == "moreau_yosida":
        with _blame("potential.penalty"):
            return MoreauYosida(_get(cfg, "potential.penalty"))
    if kind == "truncated":
        with _blame("potential.cutoff"):
            return TruncatedPotential(DoubleWell(),
                                      _get(cfg, "potential.cutoff"))
    return DoubleWell() if kind == "double_well" else ZeroPotential()


def _load_file(key, path, grid):
    """The field in the file a config key names, checked against ``grid``."""
    if not os.path.exists(path):
        raise ConfigError(key, f"referenced file '{path}' does not exist")
    with _blame(key, (OSError, ValueError)):
        return load_field(path, grid)


def _initializer(key, spec, grid):
    # numpy raises OverflowError for a random_uniform range past the largest
    # double, such as (-1e308, 1e308)
    with _blame(key, (ValueError, OverflowError)):
        return grid.check_field(builtin_initializer(spec, grid))


def _load_y0(cfg, grid):
    spec = _get(cfg, "control.y0")
    path = _get(cfg, "control.y0_file")
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
    directory = _get(cfg, "control.forcing_dir")
    spec, n_steps = _get(cfg, "control.forcing"), partition.n_steps
    if directory is not None:
        return _load_per_interval("control.forcing_dir", directory, "control",
                                  grid, n_steps)
    if spec.strip().lower() == "zero":
        return np.zeros((n_steps, grid.n_nodes))
    return np.tile(_initializer("control.forcing", spec, grid), (n_steps, 1))


def _control_problem(cfg, grid, partition, y0, aniso, pot):
    if _get(cfg, "control.target") == "final_time":
        target = FinalTimeTarget(_load_file(
            "control.target_file", _get(cfg, "control.target_file"), grid))
    else:
        target = DistributedTarget(_load_per_interval(
            "control.target_dir", _get(cfg, "control.target_dir"), "target",
            grid, partition.n_steps))
    # the fields are checked above, so only lambda is left to reject
    with _blame("control.lambda"):
        return ControlProblem(grid, partition, y0, target,
                              _get(cfg, "control.lambda"), aniso, pot)


def _config_hash(cfg):
    canon = "\n".join(f"{section}.{key}={cfg[section][key]}"
                      for section in sorted(cfg)
                      for key in sorted(cfg[section]))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_manifest(out_dir, command, cfg, grid, partition, aniso, c_psi,
                    regimes, seed):
    consts = estimate_constants(aniso, dim=grid.dim, seed=seed)
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


def _write_fields(out_dir, grid, prefix, fields, first=0):
    for j, y in enumerate(fields, first):
        write_field(os.path.join(out_dir, f"{prefix}_{j:04d}.field"), grid, y)


def _study_perturbation_pairs(grid, y0, forcing, seed):
    """c08's data: five seeded perturbations of (y0, forcing) at scale 0.1."""
    rng = np.random.default_rng(seed)
    # y0's perturbation is drawn before the forcing's
    return [((y0, forcing),
             (y0 + 0.1 * rng.uniform(-1.0, 1.0, grid.n_nodes),
              forcing + 0.1 * rng.uniform(-1.0, 1.0, forcing.shape)))
            for _ in range(5)]


def run(command, config_path, overrides=(), out_dir=None, seed=None):
    """Execute one CLI command; returns the process exit status."""
    if command not in COMMANDS:
        print(f"unknown command '{command}'; expected one of {COMMANDS}",
              file=sys.stderr)
        return 1
    try:
        cfg = load_config(config_path, overrides)
        halvings = 0
        if command in _STUDY_KINDS:
            minimum = studies.MIN_LEVELS[_STUDY_KINDS[command]]
            levels = _get(cfg, "study.levels")
            if levels < minimum:
                raise ConfigError("study.levels", f"needs at least {minimum} "
                                  f"ladder levels, got {levels}")
            # study-tau's reference is one halving past its last level
            halvings = levels if command == "study-tau" else levels - 1
        _check_size(cfg, halvings)
        grid = _build_grid(cfg)
        partition = _build_partition(cfg)
        aniso = _build_anisotropy(cfg, grid.dim)
        pot = _build_potential(cfg)
        step_config = _from_section(cfg, "solver")
        opts = _from_section(cfg, "optimize")
        c_psi = pot.semiconvexity()
        bounds, regimes = step_regimes(c_psi, partition.tau_max)
        if step_config.enforce_uniqueness and not regimes["uniqueness"]:
            raise ConfigError(
                "time", f"tau_max = {partition.tau_max:g} >= 1/c = "
                f"{bounds['uniqueness']:g}: the implicit step is only "
                "guaranteed unique for tau < 1/c (c = semiconvexity "
                "constant); refine time.N or disable solver.enforce_uniqueness")
        if out_dir is None:
            out_dir = _get(cfg, "output.directory")
        seed_key, seed = (("output.seed", _get(cfg, "output.seed"))
                          if seed is None else ("--seed", seed))
        if seed < 0:
            raise ConfigError(seed_key, f"must be non-negative, got {seed}")
        if (command in ("study-tau", "study-bounds", "study-lipschitz")
                and np.ptp(partition.tau_steps) > 1e-12 * partition.tau_max):
            raise ConfigError(
                "time.breakpoints", f"{command} refines uniform partitions "
                "only; give time.T and time.N instead")
        if command == "study-lipschitz" and not regimes["lipschitz"]:
            raise ConfigError(
                "time", f"tau_max = {partition.tau_max:g} exceeds the "
                f"stability-study bound 1/(1+2c) = {bounds['lipschitz']:g}")

        y0 = _load_y0(cfg, grid)
        if command in ("optimize", "study-control"):
            problem = _control_problem(cfg, grid, partition, y0, aniso, pot)
        elif command != "verify-energy":
            forcing = _load_forcing(cfg, grid, partition)
        # each input is built, so a key its builder checks names itself first
        _check_read(cfg, command)
        # each study bound to all its inputs, run after the manifest
        final_time, base_n = partition.final_time, partition.n_steps
        if command in ("study-tau", "study-bounds"):
            study = functools.partial(
                studies.tau_convergence_study if command == "study-tau"
                else studies.uniform_bound_study,
                grid, aniso, pot, y0, final_time, base_n, levels,
                control=forcing, config=step_config)
        elif command == "study-lipschitz":
            study = functools.partial(
                studies.lipschitz_study, grid, aniso, pot,
                _study_perturbation_pairs(grid, y0, forcing, seed),
                final_time, base_n, levels, config=step_config)
        elif command == "study-control":
            study = functools.partial(
                studies.control_convergence_study, problem, levels,
                options=opts, config=step_config)
        # the first write, so a path that cannot be a directory leaves nothing
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("output.directory", f"cannot create directory "
                              f"'{out_dir}': {exc.strerror}")
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return 1

    _write_manifest(out_dir, command, cfg, grid, partition, aniso, c_psi,
                    regimes, seed)
    diagnostics_path = os.path.join(out_dir, "diagnostics.csv")

    try:
        if command == "simulate":
            traj = solve_trajectory(grid, aniso, pot, y0, forcing, partition,
                                    step_config)
            _write_fields(out_dir, grid, "state", traj.states)
            write_diagnostics(traj, diagnostics_path)
            return 0

        if command == "verify-energy":
            traj = solve_trajectory(grid, aniso, pot, y0, None, partition,
                                    step_config)
            write_diagnostics(traj, diagnostics_path)
            report = check_energy_stability(traj, aniso, pot)
            with open(os.path.join(out_dir, "energy_report.txt"), "w") as f:
                f.write(str(report) + "\n")
            print("PASS" if report.passed else "FAIL")
            return 0 if report.passed else 2

        if command == "optimize":
            u_star, traj, report = optimize(problem, problem.zero_control(),
                                            opts, step_config)
            write_history(report, os.path.join(out_dir, "history.csv"))
            _write_fields(out_dir, grid, "control", u_star, first=1)
            _write_fields(out_dir, grid, "state", traj.states)
            write_diagnostics(traj, diagnostics_path)
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

    except (ValueError, RuntimeError) as exc:
        # a failed step carries its index and the states before it
        partial = getattr(exc, "partial_trajectory", None)
        if partial is not None:
            write_diagnostics(partial, diagnostics_path)
        where = "" if partial is None else f" at step {exc.step_index}"
        print(f"failure{where}: {exc}", file=sys.stderr)
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
