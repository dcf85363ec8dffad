import dataclasses
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from anisoflow import (DoubleWell, IsotropicAnisotropy,
                       MatrixFamilyAnisotropy, MoreauYosida, OptimizeOptions,
                       StepConfig, TimePartition, TruncatedPotential,
                       ZeroPotential, build_grid, load_field,
                       solve_trajectory, write_field)
from anisoflow import stepper
from anisoflow.cli import (_SCHEMA, _from_section, _section_fields,
                           builtin_initializer, constant_field, load_config,
                           main, random_uniform_field, run, tanh_circle_field)

BASE_CONFIG = """\
[grid]
dim = 1
nodes = 33
lengths = 1.0

[time]
T = 1.0
N = 10

[anisotropy]
kind = isotropic

[potential]
kind = double_well

[control]
y0 = constant(1.0)

[output]
seed = 3
"""


def write_config(tmp_path, text=BASE_CONFIG, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- initializers ------------------------------------------------------------------

def test_constant_initializer():
    g = build_grid(1, [9], [1.0])
    assert np.array_equal(builtin_initializer("constant(1)", g), np.ones(9))


def test_random_uniform_is_seeded():
    g = build_grid(1, [33], [1.0])
    a = builtin_initializer("random_uniform(-1, 1, 7)", g)
    b = random_uniform_field(g, -1, 1, 7)
    assert np.array_equal(a, b)
    assert np.all((a >= -1) & (a <= 1))
    assert not np.array_equal(a, random_uniform_field(g, -1, 1, 8))


def test_tanh_circle_profile():
    g = build_grid(2, [33, 33], [1.0, 1.0])
    f = builtin_initializer("tanh_circle(0.5, 0.5, 0.25, 0.05)", g)
    assert np.all(np.abs(f) < 1.0)
    # zero level set sits on the circle up to grid resolution
    dist = np.linalg.norm(g.nodes - [0.5, 0.5], axis=1)
    ring = np.abs(dist - 0.25) < 0.5 * g.spacing[0]
    assert np.max(np.abs(f[ring])) < np.tanh(0.5 * g.spacing[0] / 0.05) + 1e-12
    with pytest.raises(ValueError):
        tanh_circle_field(g, [0.5, 0.5], -0.1, 0.05)
    with pytest.raises(ValueError):
        tanh_circle_field(g, [0.5, 0.5], 0.25, 0.0)


def test_initializer_rejects_malformed():
    g = build_grid(1, [9], [1.0])
    for bad in ("nonsense(1)", "constant", "constant(1, 2)",
                "tanh_circle(0.5, 0.25)"):
        with pytest.raises(ValueError):
            builtin_initializer(bad, g)


# -- config validation ---------------------------------------------------------------

def test_unknown_key_is_named(tmp_path):
    cfg = BASE_CONFIG.replace("dim = 1", "dim = 1\nbogus = 1")
    path = write_config(tmp_path, cfg)
    with pytest.raises(Exception) as err:
        load_config(path)
    assert "grid.bogus" in str(err.value)


def test_unknown_section_rejected(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG + "\n[mystery]\nx = 1\n")
    with pytest.raises(Exception) as err:
        load_config(path)
    assert "mystery" in str(err.value)


def test_override_applies(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    code = run("simulate", path, overrides=["time.N=5"], out_dir=str(out))
    assert code == 0
    lines = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert len(lines) == 7  # header + 6 states


def test_step_rule_violation_exits_1(tmp_path, capsys):
    path = write_config(tmp_path)
    code = run("simulate", path, overrides=["time.N=1", "time.T=1.5"],
               out_dir=str(tmp_path / "out"))
    captured = capsys.readouterr()
    assert code == 1
    assert "unique" in captured.err.lower()


@pytest.mark.parametrize("is_directory", [True, False])
def test_unreadable_config_path_is_named(tmp_path, capsys, is_directory):
    # configparser.read skips a file it cannot open, so a directory used to
    # be reported as a config without 'grid.dim'
    path = tmp_path / "run.ini"
    if is_directory:
        path.mkdir()
    out = tmp_path / "out"
    assert run("simulate", str(path), out_dir=str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error at '{path}': ")
    assert "grid.dim" not in err
    assert not out.exists()


def test_config_that_is_not_utf8_is_named(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_bytes(b"[grid]\ndim = \xff\xfe\n")
    out = tmp_path / "out"
    assert run("simulate", str(path), out_dir=str(out)) == 1
    assert capsys.readouterr().err.startswith(
        f"config error at '{path}': unparseable config")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "study-lipschitz"])
@pytest.mark.parametrize("flag", [True, False])
def test_negative_seed_is_named(tmp_path, capsys, command, flag):
    # the seed reached numpy only after the output directory was made
    out = tmp_path / "out"
    seed, overrides = (-1, []) if flag else (None, ["output.seed=-1"])
    assert run(command, write_config(tmp_path), overrides, out_dir=str(out),
               seed=seed) == 1
    key = "--seed" if flag else "output.seed"
    assert capsys.readouterr().err.strip() == (
        f"config error at '{key}': must be non-negative, got -1")
    assert not out.exists()


def test_missing_file_reference_exits_1(tmp_path, capsys):
    cfg = BASE_CONFIG.replace("y0 = constant(1.0)",
                              "y0_file = does_not_exist.field")
    path = write_config(tmp_path, cfg)
    code = run("simulate", path, out_dir=str(tmp_path / "out"))
    assert code == 1
    assert "does_not_exist" in capsys.readouterr().err


SETTINGS_KEYS = [
    "solver.newton_tol", "solver.max_newton_iters", "solver.linear_tol",
    "solver.enforce_uniqueness",
    "optimize.max_iters", "optimize.grad_tol", "optimize.lbfgs",
]


@pytest.mark.parametrize("key", SETTINGS_KEYS)
def test_malformed_settings_value_is_named(tmp_path, capsys, key):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert run("simulate", path, overrides=[f"{key}=abc"],
               out_dir=str(out)) == 1
    err = capsys.readouterr().err.strip()
    # e.g. "config error at 'solver.newton_tol': not a number: 'abc'"
    assert err.startswith(f"config error at '{key}': not a")
    assert err.endswith(": 'abc'")
    assert not out.exists()


def test_settings_sections_build_the_dataclasses(tmp_path):
    cfg = BASE_CONFIG + """
[solver]
newton_tol = 1e-9
max_newton_iters = 7
linear_tol = 1e-8
enforce_uniqueness = off

[optimize]
max_iters = 3
grad_tol = 1e-5
lbfgs = yes
"""
    loaded = load_config(write_config(tmp_path, cfg))
    assert _from_section(loaded, "solver") == StepConfig(
        newton_tol=1e-9, max_newton_iters=7, linear_rtol=1e-8,
        enforce_uniqueness=False)
    assert _from_section(loaded, "optimize") == \
        OptimizeOptions(max_iters=3, grad_tol=1e-5, use_lbfgs=True)
    # an absent section gives the defaults
    loaded = load_config(write_config(tmp_path, BASE_CONFIG))
    assert _from_section(loaded, "solver") == StepConfig()


@pytest.mark.parametrize("section,cls", [("solver", StepConfig),
                                         ("optimize", OptimizeOptions)])
def test_settings_schema_matches_the_dataclasses(section, cls):
    # each INI key sets its own field and every field has a key, so no
    # field of the dataclass is out of reach of the config
    default = cls()
    fields = _section_fields(cls)
    reached = []
    for key in sorted(_SCHEMA[section]):
        name = fields[key].name
        value = getattr(default, name)
        if isinstance(value, bool):
            raw = "no" if value else "yes"
        elif isinstance(value, int):
            raw = str(value + 1)
        else:
            raw = repr(value / 2)
        built = _from_section({section: {key: raw}}, section)
        assert [f.name for f in dataclasses.fields(cls)
                if getattr(built, f.name) != getattr(default, f.name)] == [name]
        reached.append(name)
    assert sorted(reached) == sorted(f.name for f in dataclasses.fields(cls))


@pytest.mark.parametrize("override", ["optimize.max_iters=-1",
                                      "optimize.grad_tol=-1",
                                      # no longer a key, so rejected as unknown
                                      "optimize.lbfgs_memory=0",
                                      "solver.max_newton_iters=0",
                                      "solver.max_newton_iters=-2"])
def test_optimize_settings_out_of_range_exit_1(tmp_path, capsys, override):
    g = build_grid(1, [33], [1.0])
    write_field(tmp_path / "target.field", g, np.zeros(g.n_nodes))
    cfg = BASE_CONFIG.replace(
        "y0 = constant(1.0)",
        "y0 = constant(1.0)\nlambda = 1e-2\ntarget = final_time\n"
        f"target_file = {tmp_path / 'target.field'}")
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run("optimize", path, overrides=[override], out_dir=str(out)) == 1
    assert override.partition("=")[0] in capsys.readouterr().err
    assert not out.exists()  # rejected before any artifact is written


# -- simulate ---------------------------------------------------------------------------

def test_simulate_stationary_run(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert run("simulate", path, out_dir=str(out)) == 0
    diag = (out / "diagnostics.csv").read_text().strip().splitlines()
    energies = {line.split(",")[5] for line in diag[1:]}
    assert len(energies) == 1  # constant energy column
    g = build_grid(1, [33], [1.0])
    final = load_field(out / "state_0010.field", g)
    assert np.allclose(final, 1.0, atol=1e-12)
    manifest = (out / "manifest.txt").read_text()
    assert "config_hash=" in manifest
    assert "semiconvexity=1" in manifest
    assert "tau_below_uniqueness_bound=True" in manifest
    assert "tau_within_lipschitz_bound=True" in manifest
    assert "tau_within_energy_decay_bound=True" in manifest


def test_simulate_is_deterministic(tmp_path):
    cfg = BASE_CONFIG.replace("constant(1.0)", "random_uniform(-1, 1, 5)")
    path = write_config(tmp_path, cfg)
    outputs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert run("simulate", path, out_dir=str(out)) == 0
        outputs.append(((out / "diagnostics.csv").read_bytes(),
                        (out / "state_0010.field").read_bytes()))
    assert outputs[0] == outputs[1]


def test_states_roundtrip_through_snapshots(tmp_path):
    cfg = BASE_CONFIG.replace("constant(1.0)", "random_uniform(-1, 1, 9)")
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run("simulate", path, out_dir=str(out)) == 0
    g = build_grid(1, [33], [1.0])
    values = load_field(out / "state_0000.field", g)
    assert np.array_equal(values, random_uniform_field(g, -1, 1, 9))


# -- verify-energy -------------------------------------------------------------------------

def test_verify_energy_passes(tmp_path, capsys):
    cfg = BASE_CONFIG.replace("constant(1.0)", "random_uniform(-1, 1, 5)")
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run("verify-energy", path, out_dir=str(out)) == 0
    assert "PASS" in capsys.readouterr().out
    assert "PASS" in (out / "energy_report.txt").read_text()


def test_verify_energy_requires_zero_forcing(tmp_path, capsys):
    cfg = BASE_CONFIG + "forcing = constant(0.5)\n"
    path = write_config(tmp_path, cfg)
    assert run("verify-energy", path, out_dir=str(tmp_path / "out")) == 1
    assert "forcing" in capsys.readouterr().err


def test_verify_energy_rejects_forcing_dir(tmp_path, capsys):
    path = write_config(tmp_path)
    code = run("verify-energy", path,
               overrides=[f"control.forcing_dir={tmp_path / 'nonexistent'}"],
               out_dir=str(tmp_path / "out"))
    assert code == 1
    assert "control.forcing_dir" in capsys.readouterr().err


# -- optimize ---------------------------------------------------------------------------------

def test_optimize_trivial_target(tmp_path):
    # target produced by the zero-forcing run: the zero control is optimal
    base = write_config(tmp_path)
    sim_out = tmp_path / "sim"
    assert run("simulate", base, out_dir=str(sim_out)) == 0
    cfg = BASE_CONFIG.replace(
        "y0 = constant(1.0)",
        "y0 = constant(1.0)\nlambda = 1e-2\ntarget = final_time\n"
        f"target_file = {sim_out / 'state_0010.field'}")
    path = write_config(tmp_path, cfg, name="opt.ini")
    out = tmp_path / "opt"
    assert run("optimize", path, out_dir=str(out)) == 0
    summary = (out / "optimize_summary.txt").read_text()
    assert "converged=True" in summary
    assert "final_cost=0" in summary
    assert "failed_trials=0" in summary
    assert (out / "history.csv").exists()
    assert (out / "control_0010.field").exists()


# -- studies -----------------------------------------------------------------------------------

def test_study_tau_cli(tmp_path, capsys):
    cfg = BASE_CONFIG.replace("N = 10", "N = 8").replace("T = 1.0", "T = 0.5")
    cfg = cfg.replace("constant(1.0)", "tanh_circle(0.5, 0.25, 0.1)")
    cfg += "\n[study]\nlevels = 4\n"
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    code = run("study-tau", path, out_dir=str(out))
    assert code == 0
    assert (out / "study_tau.csv").exists()
    assert "PASS" in (out / "study_tau_summary.txt").read_text()


def test_study_tau_cli_failure_exits_2(tmp_path, capsys):
    # from a rough start the fitted rate is 1.207, outside (0.8, 1.2)
    cfg = BASE_CONFIG.replace("N = 10", "N = 2").replace(
        "constant(1.0)", "random_uniform(-1, 1, 3)")
    cfg += "\n[study]\nlevels = 3\n"
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning, match="Lipschitz-regime"):
        assert run("study-tau", write_config(tmp_path, cfg),
                   out_dir=str(out)) == 2
    summary = (out / "study_tau_summary.txt").read_text()
    assert capsys.readouterr().out == summary
    assert summary.splitlines()[1:] == [
        "result: FAIL", "fitted rate: 1.2074",
        "thresholds: {'rate_window': (0.8, 1.2)}",
        "note: rate 1.207 outside window (0.8, 1.2)"]


def test_study_lipschitz_cli_step_guard(tmp_path, capsys):
    # tau = 0.5 > 1/3: rejected before solving
    cfg = BASE_CONFIG.replace("N = 10", "N = 2")
    path = write_config(tmp_path, cfg)
    assert run("study-lipschitz", path, out_dir=str(tmp_path / "out")) == 1
    assert "1/(1+2c)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["study-tau", "study-bounds",
                                     "study-lipschitz"])
def test_studies_reject_nonuniform_breakpoints(tmp_path, capsys, command):
    path = write_config(tmp_path)
    code = run(command, path, overrides=["time.breakpoints=0 .05 .3 .4"],
               out_dir=str(tmp_path / "out"))
    assert code == 1
    assert "time.breakpoints" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["study-tau", "study-bounds",
                                     "study-lipschitz"])
def test_studies_reject_a_nonuniform_partition(tmp_path, capsys, command):
    # the breakpoints as the only [time] key, so no other check fires first
    cfg = BASE_CONFIG.replace("T = 1.0\nN = 10", "breakpoints = 0 .05 .3 .4")
    out = tmp_path / "out"
    assert run(command, write_config(tmp_path, cfg), out_dir=str(out)) == 1
    assert capsys.readouterr().err == (
        f"config error at 'time.breakpoints': {command} refines uniform "
        "partitions only; give time.T and time.N instead\n")
    assert not out.exists()


@pytest.mark.parametrize("command,levels", [("study-tau", 2),
                                            ("study-bounds", 1),
                                            ("study-bounds", 0),
                                            ("study-lipschitz", 1),
                                            ("study-lipschitz", 0),
                                            ("study-control", 1)])
def test_studies_reject_too_few_levels(tmp_path, capsys, command, levels):
    cfg = BASE_CONFIG + f"\n[study]\nlevels = {levels}\n"
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run(command, path, out_dir=str(out)) == 1
    assert "study.levels" in capsys.readouterr().err
    assert not out.exists()  # rejected before any artifact is written


# (command, overrides, key): inputs rejected before any artifact is written;
# {tmp} is the test's directory, holding a target on the config's grid and
# a field on another grid
REJECTED_INPUTS = [
    ("simulate", ["control.y0=bogus(1)"], "control.y0"),
    ("simulate", ["control.y0=constant(1e400)"], "control.y0"),
    ("simulate", ["control.forcing_dir={tmp}/nonexistent"],
     "control.forcing_dir"),
    ("verify-energy", ["control.forcing=constant(1)"], "control.forcing"),
    ("optimize", ["control.lambda=1e-2"], "control.target"),
    ("optimize", ["control.lambda=-1", "control.target=final_time",
                  "control.target_file={tmp}/target.field"], "control.lambda"),
    ("optimize", ["control.lambda=1e-2", "control.target=final_time",
                  "control.target_file={tmp}/coarse.field"],
     "control.target_file"),
    ("study-lipschitz", ["study.pairs=abc"], "study.pairs"),
    ("study-tau", ["study.rate_min=abc"], "study.rate_min"),
    ("study-lipschitz", ["study.pairs=0"], "study.pairs"),
    ("study-lipschitz", ["study.perturbation_scale=0"],
     "study.perturbation_scale"),
    ("study-tau", ["study.rate_min=2", "study.rate_max=1"], "study.rate_min"),
    ("study-bounds", ["study.ratio_window=0.5"], "study.ratio_window"),
    ("study-lipschitz", ["study.ratio_growth=0.5"], "study.ratio_growth"),
    ("simulate", ["anisotropy.kind=bogus"], "anisotropy.kind"),
    ("simulate", ["potential.kind=bogus"], "potential.kind"),
    ("simulate", ["anisotropy.kind=matrix_family", "anisotropy.matrices=1 0"],
     "anisotropy.matrices"),
    # NaN fails every comparison, so range checks must be written to reject it
    ("simulate", ["grid.lengths=nan"], "grid"),
    ("simulate", ["anisotropy.kind=matrix_family", "anisotropy.matrices=1",
                  "anisotropy.delta=nan"], "anisotropy.delta"),
    ("simulate", ["anisotropy.kind=matrix_family", "anisotropy.matrices=nan"],
     "anisotropy.matrices"),
    ("simulate", ["potential.kind=moreau_yosida", "potential.penalty=nan"],
     "potential.penalty"),
    ("simulate", ["potential.kind=truncated", "potential.cutoff=nan"],
     "potential.cutoff"),
    ("simulate", ["time.breakpoints=0 nan 1"], "time.breakpoints"),
    ("optimize", ["control.lambda=nan", "control.target=final_time",
                  "control.target_file={tmp}/target.field"], "control.lambda"),
    ("study-bounds", ["study.growth_tol=nan"], "study.growth_tol"),
    ("study-bounds", ["study.growth_tol=-5"], "study.growth_tol"),
    ("study-tau", ["study.rate_max=nan"], "study.rate_max"),
    ("simulate", ["grid.nodes=abc"], "grid.nodes"),
    ("simulate", ["grid.lengths=abc"], "grid.lengths"),
    ("simulate", ["anisotropy.kind=matrix_family", "anisotropy.matrices=1",
                  "anisotropy.delta=-1"], "anisotropy.delta"),
    # a non-number in a matrix
    ("simulate", ["anisotropy.kind=matrix_family",
                  "anisotropy.matrices=1 0 0 abc"], "anisotropy.matrices"),
    ("simulate", ["anisotropy.kind=matrix_family", "anisotropy.matrices=true"],
     "anisotropy.matrices"),
    # non-finite model parameters; 1e400 parses as inf
    ("simulate", ["potential.kind=truncated", "potential.cutoff=inf",
                  "time.T=4", "time.N=2"], "potential.cutoff"),
    ("simulate", ["potential.kind=truncated", "potential.cutoff=1e400"],
     "potential.cutoff"),
    ("simulate", ["anisotropy.kind=matrix_family", "anisotropy.matrices=1",
                  "anisotropy.delta=inf"], "anisotropy.delta"),
    ("simulate", ["potential.kind=moreau_yosida", "potential.penalty=inf"],
     "potential.penalty"),
    # tolerances the solver cannot honour
    ("simulate", ["solver.newton_tol=inf"], "solver.newton_tol"),
    ("simulate", ["solver.linear_tol=2"], "solver.linear_tol"),
    ("simulate", ["solver.linear_tol=1e400"], "solver.linear_tol"),
    # non-finite [study] values
    ("study-lipschitz", ["study.perturbation_scale=inf"],
     "study.perturbation_scale"),
    ("study-bounds", ["study.growth_tol=inf"], "study.growth_tol"),
    ("study-bounds", ["study.ratio_window=inf"], "study.ratio_window"),
    ("study-lipschitz", ["study.ratio_growth=inf"], "study.ratio_growth"),
    ("study-tau", ["study.rate_min=-inf"], "study.rate_min"),
    ("study-tau", ["study.rate_max=-inf"], "study.rate_max"),
    ("optimize", ["control.lambda=inf", "control.target=final_time",
                  "control.target_file={tmp}/target.field"], "control.lambda"),
    ("optimize", ["optimize.grad_tol=inf"], "optimize.grad_tol"),
    # the pass rules are fixed; this window would pass any rate
    ("study-tau", ["study.rate_min=-1e300", "study.rate_max=1e300"],
     "study.rate_min"),
    ("simulate", ["control.y0"], "control.y0"),
    ("simulate", ["control.y0_file={tmp}/target.field"], "control.y0"),
    ("optimize", ["control.lambda=1e-2", "control.target=bogus"],
     "control.target"),
]

# runs whose finest trajectory holds more than 2^27 doubles, named by the
# first key that breaks the budget; study-tau's reference is one level finer
OVERSIZED_INPUTS = [
    ("simulate", ["grid.nodes=100000000"], "grid.nodes"),
    ("simulate", ["time.N=1000000000000"], "time.N"),
    ("simulate", ["grid.nodes=1000000", "time.breakpoints="
                  + " ".join(str(j / 200) for j in range(201))],
     "time.breakpoints"),
    ("study-tau", ["study.levels=70"], "study.levels"),
    ("study-lipschitz", ["study.levels=70", "time.N=3"], "study.levels"),
    ("study-bounds", ["study.levels=1000000000000"], "study.levels"),
    ("study-control", ["study.levels=30", "control.lambda=1e-2",
                       "control.target=final_time",
                       "control.target_file={tmp}/target.field"],
     "study.levels"),
]
REJECTED_INPUTS += OVERSIZED_INPUTS + [
    # two counts below 1 make a large product, which is not a size error
    ("simulate", ["grid.nodes=-100000000", "time.N=-5"], "grid"),
]
# two states of these nodes fit the limit; the grid's own doubles do not
OVERSIZED_INPUTS.append(("simulate", ["grid.nodes=60000000", "time.N=1"],
                         "grid.nodes"))
REJECTED_INPUTS += [
    OVERSIZED_INPUTS[-1],
    ("simulate", ["control.y0=tanh_circle(0.5, 0.3)"], "control.y0"),
    ("simulate", ["control.y0=random_uniform(-1, 1)"], "control.y0"),
    # a key the run would ignore, because another key gives the same input
    # or the kind does not read it; each of these runs would otherwise pass
    ("simulate", ["control.forcing=constant(0.1)",
                  "control.forcing_dir={tmp}/fields"], "control.forcing"),
    ("simulate", ["time.breakpoints=0,0.1,0.2"], "time.T"),
    ("optimize", ["control.lambda=1e-2", "control.target=final_time",
                  "control.target_file={tmp}/target.field",
                  "control.target_dir={tmp}/fields"], "control.target_dir"),
    ("optimize", ["control.lambda=1e-2", "control.target=distributed",
                  "control.target_dir={tmp}/fields",
                  "control.target_file={tmp}/target.field"],
     "control.target_file"),
    ("simulate", ["anisotropy.delta=0.1"], "anisotropy.delta"),
    ("simulate", ["anisotropy.matrices=1"], "anisotropy.matrices"),
    ("simulate", ["potential.cutoff=2"], "potential.cutoff"),
    ("simulate", ["potential.kind=zero", "potential.penalty=10"],
     "potential.penalty"),
    ("simulate", ["potential.kind=moreau_yosida", "potential.penalty=10",
                  "potential.cutoff=2"], "potential.cutoff"),
    ("simulate", ["potential.kind=truncated", "potential.cutoff=2",
                  "potential.penalty=10"], "potential.penalty"),
    # a range past the largest double, which numpy cannot draw from
    ("simulate", ["control.y0=random_uniform(-1e308, 1e308, 3)"],
     "control.y0"),
    ("simulate", ["control.forcing=random_uniform(-1e308, 1e308, 3)"],
     "control.forcing"),
]


@pytest.mark.parametrize("command,overrides,key", REJECTED_INPUTS)
def test_config_errors_write_nothing(tmp_path, capsys, command, overrides,
                                     key):
    write_field(tmp_path / "target.field", build_grid(1, [33], [1.0]),
                np.ones(33))
    write_field(tmp_path / "coarse.field", build_grid(1, [17], [1.0]),
                np.ones(17))
    # one field per interval of the config's 10, under both prefixes
    fields, grid = tmp_path / "fields", build_grid(1, [33], [1.0])
    fields.mkdir()
    for prefix in ("control", "target"):
        for j in range(1, 11):
            write_field(fields / f"{prefix}_{j:04d}.field", grid, np.ones(33))
    path = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(command, path, [o.format(tmp=tmp_path) for o in overrides],
               out_dir=str(out))
    assert code == 1
    assert f"config error at '{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,overrides,key", OVERSIZED_INPUTS)
def test_oversized_runs_are_rejected_before_allocating(tmp_path, capsys,
                                                       command, overrides,
                                                       key):
    write_field(tmp_path / "target.field", build_grid(1, [33], [1.0]),
                np.ones(33))
    path = write_config(tmp_path)
    tracemalloc.start()
    try:
        code = run(command, path, [o.format(tmp=tmp_path) for o in overrides],
                   out_dir=str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert f"config error at '{key}'" in capsys.readouterr().err
    assert peak < 2**20  # bytes: nothing of the run's size was built


@pytest.mark.parametrize("overrides,message", [
    (["time.T=nan"], "'time': final time must be finite, got nan"),
    (["time.T=inf"], "'time': final time must be finite, got inf"),
    (["time.breakpoints=0,0.5,inf"],
     "'time.breakpoints': breakpoints must be finite, got [0.0, 0.5, inf]"),
    (["grid.dim=2", "grid.nodes=5,5", "grid.lengths=inf,1"],
     "'grid': lengths must be positive and finite, got (inf, 1.0)"),
], ids=["T-nan", "T-inf", "breakpoints-inf", "lengths-inf"])
def test_non_finite_time_and_lengths_are_named(tmp_path, capsys, overrides,
                                               message):
    # an infinite or NaN value must not surface as a later, wrong cause (a
    # partition not starting at 0, a degenerate element, a step bound)
    out = tmp_path / "out"
    assert run("simulate", write_config(tmp_path), overrides,
               out_dir=str(out)) == 1
    assert capsys.readouterr().err.strip() == f"config error at {message}"
    assert not out.exists()


@pytest.mark.parametrize("from_config", [False, True])
def test_output_path_that_is_a_file_exits_1(tmp_path, capsys, from_config):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep me\n")
    path = write_config(tmp_path)
    if from_config:  # a directory under the file, named in the config
        code = run("simulate", path,
                   overrides=[f"output.directory={blocker / 'sub'}"])
    else:  # the file itself, named by --out
        code = run("simulate", path, out_dir=str(blocker))
    assert code == 1
    assert "config error at 'output.directory'" in capsys.readouterr().err
    assert blocker.read_text() == "keep me\n"


def test_study_lipschitz_at_the_bound_meets_it(tmp_path):
    # tau = 1/3 rounds a few ulps above 1/(1+2c) = 1/3; the study accepts
    # it, so the solves must not warn and the manifest must agree
    cfg = BASE_CONFIG.replace("nodes = 33", "nodes = 17").replace(
        "N = 10", "N = 3").replace("constant(1.0)",
                                   "random_uniform(-0.5, 0.5, 2)")
    cfg += "\n[study]\nlevels = 2\n"
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("study-lipschitz", write_config(tmp_path, cfg),
                   out_dir=str(out)) == 0
    assert "tau_within_lipschitz_bound=True" in (
        out / "manifest.txt").read_text().splitlines()


def test_study_lipschitz_cli_runs(tmp_path):
    cfg = BASE_CONFIG.replace("N = 10", "N = 4")
    cfg = cfg.replace("constant(1.0)", "random_uniform(-0.5, 0.5, 2)")
    cfg += "\n[study]\nlevels = 3\n"
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run("study-lipschitz", path, out_dir=str(out)) == 0
    assert (out / "study_lipschitz.csv").exists()


def test_main_entry_point(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["simulate", "--config", path, "--out",
                 str(tmp_path / "out"), "--seed", "1"])
    assert code == 0


def test_unknown_command(capsys):
    assert run("explode", "nope.ini") == 1


def test_optimize_distributed_target(tmp_path):
    # distributed tracking: one target snapshot per interval
    g = build_grid(1, [33], [1.0])
    tdir = tmp_path / "targets"
    tdir.mkdir()
    from anisoflow import write_field
    rng = np.random.default_rng(2)
    for j in range(1, 11):
        write_field(tdir / f"target_{j:04d}.field", g,
                    rng.uniform(-0.5, 0.5, g.n_nodes))
    cfg = BASE_CONFIG.replace(
        "y0 = constant(1.0)",
        "y0 = constant(0.0)\nlambda = 1e-2\ntarget = distributed\n"
        f"target_dir = {tdir}")
    path = write_config(tmp_path, cfg, name="dist.ini")
    out = tmp_path / "out"
    assert run("optimize", path, overrides=["optimize.max_iters=3"],
               out_dir=str(out)) == 0
    assert (out / "history.csv").exists()


def test_optimize_converges_with_default_settings(tmp_path):
    # level 0 of the c09 control study, with no [optimize] section: the
    # target is the final state of a 128-step run driven by 2 sin(pi x)
    g = build_grid(1, [65], [1.0])
    y0 = tanh_circle_field(g, [0.5], 0.25, 0.05)
    drive = np.tile(2.0 * np.sin(np.pi * g.nodes[:, 0]), (128, 1))
    target = solve_trajectory(g, IsotropicAnisotropy(), DoubleWell(), y0,
                              drive, TimePartition.uniform(0.5, 128))
    write_field(tmp_path / "target.field", g, target.states[-1])
    cfg = BASE_CONFIG.replace("nodes = 33", "nodes = 65").replace(
        "T = 1.0", "T = 0.5").replace("N = 10", "N = 8").replace(
        "y0 = constant(1.0)",
        "y0 = tanh_circle(0.5, 0.25, 0.05)\nlambda = 1e-3\n"
        f"target = final_time\ntarget_file = {tmp_path / 'target.field'}")
    out = tmp_path / "out"
    assert run("optimize", write_config(tmp_path, cfg), out_dir=str(out)) == 0
    summary = (out / "optimize_summary.txt").read_text()
    assert summary.startswith("converged=True\n"), summary


def test_optimize_single_matrix_without_regularization(tmp_path):
    # configs/steering.ini at 9^2 under one stretched matrix with delta = 0:
    # A = p'Gp / 2 is quadratic, so the adjoint has the A'' it needs
    config = str(pathlib.Path(__file__).parents[1] / "configs" / "steering.ini")
    quadratic = ["grid.nodes=9,9", "anisotropy.matrices=1 0 0 0.04",
                 "anisotropy.delta=0"]
    sim, out = tmp_path / "sim", tmp_path / "out"
    assert run("simulate", config, quadratic + [
        "control.y0=tanh_circle(0.5, 0.5, 0.3, 0.08)"], out_dir=str(sim)) == 0
    assert run("optimize", config, quadratic + [
        f"control.target_file={sim / 'state_0008.field'}"],
        out_dir=str(out)) == 0
    summary = (out / "optimize_summary.txt").read_text()
    assert summary.startswith("converged=True\n"), summary


def test_study_bounds_cli(tmp_path):
    cfg = BASE_CONFIG.replace("N = 10", "N = 8")
    cfg = cfg.replace("constant(1.0)", "tanh_circle(0.5, 0.25, 0.1)")
    cfg += "\n[study]\nlevels = 3\n"
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert run("study-bounds", path, out_dir=str(out)) == 0
    assert (out / "study_bounds.csv").exists()


def test_study_control_cli(tmp_path):
    # stationary data with a matching target: optimal controls are zero
    base = write_config(tmp_path)
    sim_out = tmp_path / "sim"
    assert run("simulate", base, out_dir=str(sim_out)) == 0
    cfg = BASE_CONFIG.replace("N = 10", "N = 4").replace(
        "y0 = constant(1.0)",
        "y0 = constant(1.0)\nlambda = 1e-2\ntarget = final_time\n"
        f"target_file = {sim_out / 'state_0010.field'}")
    cfg += "\n[study]\nlevels = 3\n"
    path = write_config(tmp_path, cfg, name="sc.ini")
    out = tmp_path / "out"
    assert run("study-control", path, out_dir=str(out)) == 0
    assert "PASS" in (out / "study_control_summary.txt").read_text()


def test_study_control_cli_distributed_target(tmp_path, capsys):
    g = build_grid(1, [17], [1.0])
    tdir = tmp_path / "targets"
    tdir.mkdir()
    rng = np.random.default_rng(6)
    for j in range(1, 5):
        write_field(tdir / f"target_{j:04d}.field", g,
                    rng.uniform(-0.5, 0.5, g.n_nodes))
    cfg = BASE_CONFIG.replace("nodes = 33", "nodes = 17").replace(
        "N = 10", "N = 4").replace(
        "y0 = constant(1.0)",
        "y0 = constant(0.0)\nlambda = 1e-2\ntarget = distributed\n"
        f"target_dir = {tdir}")
    cfg += "\n[study]\nlevels = 2\n"
    path = write_config(tmp_path, cfg)
    study, opt = tmp_path / "study", tmp_path / "opt"
    assert run("study-control", path, out_dir=str(study)) == 0
    assert "PASS" in (study / "study_control_summary.txt").read_text()
    # the coarsest level tracks the loaded targets themselves
    assert run("optimize", path, out_dir=str(opt)) == 0
    final_cost = (opt / "optimize_summary.txt").read_text().split(
        "final_cost=")[1].split()[0]
    level0 = (study / "study_control.csv").read_text().splitlines()[1]
    assert final_cost in level0.split(",")


def test_solver_failure_exits_2_with_partial_diagnostics(tmp_path, capsys):
    cfg = BASE_CONFIG.replace("constant(1.0)", "random_uniform(-1, 1, 4)")
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    # one Newton iteration cannot reach the residual target from random data
    code = run("simulate", path, overrides=["solver.max_newton_iters=1"],
               out_dir=str(out))
    assert code == 2
    assert "step 1" in capsys.readouterr().err
    diag = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert diag[0].startswith("j,")
    assert len(diag) == 2  # header + the initial state row


def test_stalled_line_search_exits_2_with_partial_diagnostics(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(stepper, "_ARMIJO_SLOPE", 2.0)
    cfg = BASE_CONFIG.replace("constant(1.0)", "random_uniform(-1, 1, 4)")
    out = tmp_path / "out"
    assert run("simulate", write_config(tmp_path, cfg),
               out_dir=str(out)) == 2
    assert capsys.readouterr().err.startswith(
        "failure at step 1: line search stalled below 1e-12")
    diag = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert diag[0].startswith("j,")
    assert len(diag) == 2 and diag[1].startswith("0,")
    assert not (out / "state_0000.field").exists()


def test_verify_energy_failure_writes_partial_diagnostics(tmp_path, capsys):
    cfg = BASE_CONFIG.replace("constant(1.0)", "random_uniform(-1, 1, 4)")
    out = tmp_path / "out"
    code = run("verify-energy", write_config(tmp_path, cfg),
               overrides=["solver.max_newton_iters=1"], out_dir=str(out))
    assert code == 2
    assert "failure at step 1:" in capsys.readouterr().err
    diag = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert diag[0].startswith("j,")
    assert len(diag) == 2 and diag[1].startswith("0,")


def test_partial_diagnostics_match_successful_run(tmp_path):
    cfg = BASE_CONFIG.replace("constant(1.0)", "random_uniform(-1, 1, 4)")
    path = write_config(tmp_path, cfg)
    ok, failed = tmp_path / "ok", tmp_path / "failed"
    assert run("simulate", path, out_dir=str(ok)) == 0
    assert run("simulate", path, overrides=["solver.max_newton_iters=1"],
               out_dir=str(failed)) == 2
    partial = (failed / "diagnostics.csv").read_bytes().splitlines(True)
    assert len(partial) == 2
    assert partial == (ok / "diagnostics.csv").read_bytes().splitlines(True)[:2]


# -- model builders ---------------------------------------------------------------

# per kind: overrides of the base config and the objects they should build
MODEL_KINDS = {
    "matrix_family": (
        ["grid.dim=2", "grid.nodes=5 5", "grid.lengths=1 1",
         "anisotropy.kind=matrix_family", "anisotropy.delta=0.01",
         "anisotropy.matrices=1 0 0 0.04; 0.04 0 0 1"],
        MatrixFamilyAnisotropy([np.diag([1.0, 0.04]), np.diag([0.04, 1.0])],
                               0.01), DoubleWell()),
    "moreau_yosida": (["potential.kind=moreau_yosida", "potential.penalty=50"],
                      IsotropicAnisotropy(), MoreauYosida(50.0)),
    "truncated": (["potential.kind=truncated", "potential.cutoff=1.5"],
                  IsotropicAnisotropy(), TruncatedPotential(DoubleWell(), 1.5)),
    "zero": (["potential.kind=zero"], IsotropicAnisotropy(), ZeroPotential()),
}


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_simulate_builds_each_model_kind(tmp_path, kind):
    overrides, aniso, pot = MODEL_KINDS[kind]
    cfg = BASE_CONFIG.replace("nodes = 33", "nodes = 9").replace(
        "constant(1.0)", "random_uniform(-1, 1, 4)")
    out = tmp_path / "out"
    assert run("simulate", write_config(tmp_path, cfg), overrides,
               out_dir=str(out)) == 0
    dim = 2 if kind == "matrix_family" else 1
    g = build_grid(dim, [9] if dim == 1 else [5, 5], [1.0] * dim)
    traj = solve_trajectory(g, aniso, pot, random_uniform_field(g, -1, 1, 4),
                            None, TimePartition.uniform(1.0, 10))
    assert np.array_equal(load_field(out / "state_0010.field", g),
                          traj.states[-1])


def test_simulate_with_constant_forcing(tmp_path):
    out = tmp_path / "out"
    assert run("simulate", write_config(tmp_path),
               ["control.forcing=constant(0.5)"], out_dir=str(out)) == 0
    g = build_grid(1, [33], [1.0])
    traj = solve_trajectory(g, IsotropicAnisotropy(), DoubleWell(),
                            np.ones(33), np.full((10, 33), 0.5),
                            TimePartition.uniform(1.0, 10))
    assert np.array_equal(load_field(out / "state_0010.field", g),
                          traj.states[-1])
    # the forcing moves the state off the stationary y = 1
    assert np.all(traj.states[-1] > 1.0)


def test_simulate_unregularized_single_matrix_family(tmp_path, capsys):
    # matrices = 1 with delta = 0 is A(p) = p^2 / 2 written as a family that
    # is not C2 at 0; each step must still reach newton_tol
    out = tmp_path / "out"
    overrides = ["control.y0=random_uniform(-1, 1, 5)",
                 "anisotropy.kind=matrix_family", "anisotropy.matrices=1"]
    assert run("simulate", write_config(tmp_path), overrides,
               out_dir=str(out)) == 0, capsys.readouterr().err
    rows = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert len(rows) == 12  # header + 11 states
