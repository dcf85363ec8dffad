import numpy as np
import pytest

from anisoflow import (OptimizeOptions, StepConfig, build_grid, load_field,
                       read_field, write_field)
from anisoflow.cli import (_from_section, builtin_initializer, constant_field,
                           load_config, main, random_uniform_field, run,
                           tanh_circle_field)

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


def test_missing_file_reference_exits_1(tmp_path, capsys):
    cfg = BASE_CONFIG.replace("y0 = constant(1.0)",
                              "y0_file = does_not_exist.field")
    path = write_config(tmp_path, cfg)
    code = run("simulate", path, out_dir=str(tmp_path / "out"))
    assert code == 1
    assert "does_not_exist" in capsys.readouterr().err


SETTINGS_KEYS = [
    "solver.newton_tol", "solver.max_newton_iters", "solver.armijo_slope",
    "solver.armijo_backtrack", "solver.armijo_min_step", "solver.linear_tol",
    "solver.enforce_uniqueness", "solver.max_descent_iters",
    "optimize.max_iters", "optimize.grad_tol", "optimize.lbfgs",
    "optimize.lbfgs_memory",
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
armijo_slope = 0.25
armijo_backtrack = 0.75
armijo_min_step = 1e-6
linear_tol = 1e-8
enforce_uniqueness = off
max_descent_iters = 11

[optimize]
max_iters = 3
grad_tol = 1e-5
lbfgs = yes
lbfgs_memory = 4
"""
    loaded = load_config(write_config(tmp_path, cfg))
    assert _from_section(loaded, "solver", StepConfig) == StepConfig(
        newton_tol=1e-9, max_newton_iters=7, armijo_slope=0.25,
        armijo_backtrack=0.75, armijo_min_step=1e-6, linear_rtol=1e-8,
        enforce_uniqueness=False, max_descent_iters=11)
    assert _from_section(loaded, "optimize", OptimizeOptions) == \
        OptimizeOptions(max_iters=3, grad_tol=1e-5, use_lbfgs=True,
                        lbfgs_memory=4)
    # an absent section gives the defaults
    loaded = load_config(write_config(tmp_path, BASE_CONFIG))
    assert _from_section(loaded, "solver", StepConfig) == StepConfig()


def test_armijo_backtrack_of_one_exits_1(tmp_path, capsys):
    # a contraction factor of 1 would make the line search loop forever;
    # the stationary base run never searches, so it cannot hang here
    path = write_config(tmp_path)
    code = run("simulate", path, overrides=["solver.armijo_backtrack=1"],
               out_dir=str(tmp_path / "out"))
    assert code == 1
    assert "solver.armijo_backtrack" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["optimize.max_iters=-1",
                                      "optimize.grad_tol=-1",
                                      "optimize.lbfgs_memory=0",
                                      "solver.max_newton_iters=0",
                                      "solver.max_newton_iters=-2",
                                      "solver.max_descent_iters=0"])
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
    values, meta = read_field(out / "state_0000.field")
    assert meta["shape"] == (33,)
    g = build_grid(1, [33], [1.0])
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
]


@pytest.mark.parametrize("command,overrides,key", REJECTED_INPUTS)
def test_config_errors_write_nothing(tmp_path, capsys, command, overrides,
                                     key):
    write_field(tmp_path / "target.field", build_grid(1, [33], [1.0]),
                np.ones(33))
    write_field(tmp_path / "coarse.field", build_grid(1, [17], [1.0]),
                np.ones(17))
    path = write_config(tmp_path)
    out = tmp_path / "out"
    code = run(command, path, [o.format(tmp=tmp_path) for o in overrides],
               out_dir=str(out))
    assert code == 1
    assert f"config error at '{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_study_lipschitz_cli_runs(tmp_path):
    cfg = BASE_CONFIG.replace("N = 10", "N = 4")
    cfg = cfg.replace("constant(1.0)", "random_uniform(-0.5, 0.5, 2)")
    cfg += "\n[study]\nlevels = 3\npairs = 2\n"
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
