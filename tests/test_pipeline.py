"""End-to-end pipeline, its config file handling and the CLI wrapper."""

import hashlib
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import porohom
from porohom import pipeline
from porohom.cli import main
from porohom.cell_spectral import read_spectrum_csv
from porohom.cell_unsteady import KernelSamples
from porohom.fem import SolverError
from porohom.kernel_model import (
    KernelModel,
    build_kernel_model,
    read_model_csv,
    write_model_csv,
)
from porohom.meshing import MeshQualityError, gen_rect_mesh, write_mesh
from porohom.pipeline import (
    DEFAULTS,
    STAGES,
    PipelineError,
    parse_config,
    render_table,
    run_pipeline,
)
from porohom.textio import FormatError

from conftest import COEF3, KBAR3, LAMS3, reap_children

# coarse settings so one full pipeline run takes a few seconds
FAST = {
    "gamma": "1.0",
    "cell_h": "0.1",
    "macro_h": "0.25",
    "modes": "4",
    "tau": "1e-4",
    "t_final": "4e-4",
    "snapshots": "0,4e-4",
    "oracle_tau": "2e-3",
    "oracle_horizon": "0.02",
    "svg": "true",
}


def fast_config(out_dir, **extra):
    overrides = dict(FAST)
    overrides["out_dir"] = str(out_dir)
    overrides.update(extra)
    return parse_config(overrides=overrides)


def test_defaults_cover_every_key():
    config = parse_config()
    assert set(config) == set(DEFAULTS)
    assert config["stages"] == tuple(s for s in STAGES if s != "oracle")
    assert config["sigma"] == 0.5


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("# comment\n\ngamma = 2.5\nmodes=7\n")
    config = parse_config(path, overrides={"modes": "9"})
    assert config["gamma"] == 2.5
    assert config["modes"] == 9


def test_config_takes_typed_overrides(tmp_path):
    config = parse_config(overrides={"f": (1.0, 0.5), "snapshots": [0, 2e-4]})
    assert config["f"] == (1.0, 0.5)
    assert config["snapshots"] == (0.0, 2e-4)
    # a run's manifest holds its config with lists; it parses back as is
    manifest = run_pipeline(fast_config(tmp_path / "run", stages="mesh"))
    assert parse_config(overrides=manifest["config"]) == fast_config(
        tmp_path / "run", stages="mesh")


def test_config_rejects_unknown_and_malformed(tmp_path):
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(overrides={"made_up": "1"})
    path = tmp_path / "bad.cfg"
    path.write_text("gamma\n")
    with pytest.raises(ValueError, match="expected key=value"):
        parse_config(path)
    with pytest.raises(ValueError, match="unknown stage"):
        parse_config(overrides={"stages": "mesh,warp"})
    with pytest.raises(ValueError):
        parse_config(overrides={"sigma": "1.5"})
    with pytest.raises(ValueError):
        parse_config(overrides={"svg": "maybe"})
    for key in ("epsilon", "tau", "t_final", "oracle_horizon", "source",
                "macro_lx", "gamma"):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                parse_config(overrides={key: value})
    for key in ("f", "snapshots"):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            parse_config(overrides={key: "0.0,nan"})


@pytest.mark.parametrize("key, value, message", [
    ("cell_h", "0", "cell_h must be positive"),
    ("oracle_horizon", "-1", "oracle_horizon must be positive"),
    ("modes", "-1", "modes must be nonnegative"),
    ("t_final", "-1e-4", "t_final must be nonnegative"),
    ("sigma", "1.5", r"sigma must lie in \[0, 1\]"),
    ("sigma", "-0.1", r"sigma must lie in \[0, 1\]"),
    ("f", "1,2,3", "f must have two entries"),
    ("f", "1", "f must have two entries"),
    ("snapshots", "0,-1e-4", "snapshots must be nonnegative"),
])
def test_config_rule_errors_name_the_key(key, value, message):
    with pytest.raises(ValueError, match=message):
        parse_config(overrides={key: value})


def test_config_checks_the_boundary_spec():
    # the macro stage's own parser, so a bad bc fails before any stage
    natural = ",top=natural:0,bottom=natural:0"
    with pytest.raises(ValueError, match="unknown boundary kind 'warp'"):
        parse_config(overrides={"bc": "left=warp:0,right=natural:0"
                                + natural})
    with pytest.raises(ValueError, match="missing boundary condition"):
        parse_config(overrides={"bc": "left=natural:0" + natural})
    bc = "Left=Dirichlet:0,right=natural:1" + natural
    assert parse_config(overrides={"bc": bc})["bc"] == bc


def test_full_pipeline_products(tmp_path):
    out = tmp_path / "run"
    manifest = run_pipeline(fast_config(out))
    names = set(manifest["artifacts"])
    assert {"cell.mesh", "macro.mesh", "k_bar.csv", "spectrum.csv",
            "table3.txt", "kernel.csv", "macro_ledger.csv"} <= names
    assert any(n.startswith("macro_state_") for n in names)
    assert any(n.endswith(".svg") for n in names)
    # every artifact listed in the manifest exists and hashes match
    with open(out / "manifest.json") as fh:
        on_disk = json.load(fh)
    assert on_disk == {"config": manifest["config"],
                       "artifacts": manifest["artifacts"]}
    for name in names:
        assert (out / name).exists()
    assert not list(out.glob("*.partial"))


def test_pipeline_is_deterministic(tmp_path, pooled):
    pooled(1)
    m1 = run_pipeline(fast_config(tmp_path / "a"))
    pooled(2)  # the second run formats its states in two processes
    m2 = run_pipeline(fast_config(tmp_path / "b"))
    assert m1["artifacts"] == m2["artifacts"]
    assert not reap_children()


def test_stage_subsets_resume_from_artifacts(tmp_path):
    out = tmp_path / "run"
    run_pipeline(fast_config(out, stages="mesh"))
    assert (out / "cell.mesh").exists()
    assert not (out / "k_bar.csv").exists()
    run_pipeline(fast_config(out, stages="cell-steady,eigen"))
    run_pipeline(fast_config(out, stages="kernel,macro"))
    assert (out / "macro_ledger.csv").exists()


def test_kernel_stage_keeps_whole_clusters(tmp_path):
    # modes = 4 cuts the circular cell's degenerate fourth and fifth
    # modes; eigen completes the pair and kernel must keep it as well,
    # or K_tilde of an isotropic cell comes out anisotropic
    out = tmp_path / "run"
    run_pipeline(fast_config(out, stages="mesh,cell-steady,eigen,kernel"))
    lams, coeffs = read_spectrum_csv(out / "spectrum.csv")
    model = read_model_csv(out / "kernel.csv")
    assert lams.size == 5
    # mode 3 is even under the half-turn, so its a is exactly zero and
    # the model drops it, even at epsilon = 0, without moving K_tilde
    assert np.array_equal(coeffs[2], [0.0, 0.0])
    assert np.array_equal(model.mode_ids, [1, 2, 4, 5])
    full = KernelModel(model.k_bar, lams, coeffs, np.arange(1, 6))
    assert np.array_equal(model.k_tilde, full.k_tilde)
    k = model.k_tilde
    assert abs(k[0, 1]) <= 1e-12 * k[0, 0]
    assert abs(k[1, 1] - k[0, 0]) <= 1e-12 * k[0, 0]


def test_memoryless_chain_runs_end_to_end(tmp_path):
    # modes = 0: eigen writes an empty spectrum, kernel a model with no
    # modes, and macro marches with K_tilde = K_bar alone
    out = tmp_path / "run"
    run_pipeline(fast_config(out, modes="0"))
    lams, coeffs = read_spectrum_csv(out / "spectrum.csv")
    assert lams.shape == (0,) and coeffs.shape == (0, 2)
    model = read_model_csv(out / "kernel.csv")
    assert model.num_modes == 0
    assert np.array_equal(model.k_tilde, model.k_bar)
    state = (out / "macro_state_0.0004.csv").read_text().splitlines()
    assert state[0] == "node,x,y,v"
    assert len((out / "macro_ledger.csv").read_text().splitlines()) == 5


def test_kernel_mode_count_must_fit_the_spectrum(tmp_path, capsys):
    # more modes than the spectrum holds is an error, not a silent cap;
    # the kernel subcommand without --modes keeps the whole spectrum but
    # for its one mode with a = 0
    out = tmp_path / "run"
    run_pipeline(fast_config(out, stages="mesh,cell-steady,eigen"))
    with pytest.raises(PipelineError) as info:
        run_pipeline(fast_config(out, stages="kernel", modes="6"))
    assert isinstance(info.value.__cause__, ValueError)
    args = ["kernel", "--spectrum", str(out / "spectrum.csv"),
            "--kbar", str(out / "k_bar.csv"), "--out", str(out / "k.csv")]
    assert main(args + ["--modes", "6"]) == 2
    assert "num_modes=6 outside [0, 5]" in capsys.readouterr().err
    assert not (out / "k.csv").exists()
    assert main(args) == 0
    assert read_model_csv(out / "k.csv").num_modes == 4


def test_pipeline_shares_one_cell_system(tmp_path, monkeypatch, factor_spy):
    # cell-steady, eigen and oracle reuse one assembly: each of its
    # blocks is factored exactly once, plus the steppers of the two
    # blocks that carry a force
    from porohom import fem

    systems, factored = [], factor_spy.matrices
    build = fem.StokesSystem.__init__

    def building(self, mesh):
        systems.append(self)
        build(self, mesh)

    monkeypatch.setattr(fem.StokesSystem, "__init__", building)
    out = tmp_path / "run"
    run_pipeline(fast_config(out, stages="mesh,cell-steady,eigen,oracle"))
    assert len(systems) == 1
    blocks = systems[0].blocks
    assert len(blocks) == 4
    assert sorted(map(id, factored[:4])) == sorted(
        id(block.operator) for block in blocks)
    tau = float(FAST["oracle_tau"])
    steppers = [b.operator + b.mass / tau for b in blocks if b.forces.size]
    assert len(factored) == 4 + len(steppers) == 6
    for got, want in zip(factored[4:], steppers):
        assert abs(got - want).max() == 0.0


def built_blocks(records):
    """Characters of the cell blocks whose build the records log."""
    return [r.args[0] for r in records
            if r.name == "porohom.fem" and r.msg.startswith("cell block")]


def test_stages_build_only_the_blocks_they_read(tmp_path, caplog):
    # a constant force is odd under the half-turn: the oracle and the
    # steady solves read the two odd blocks, the eigen stage all four
    out = tmp_path / "run"
    run_pipeline(fast_config(out, stages="mesh"))
    with caplog.at_level(logging.DEBUG, logger="porohom.fem"):
        run_pipeline(fast_config(out, stages="oracle"))
        assert built_blocks(caplog.records) == [(-1, 1), (-1, -1)]
        caplog.clear()
        run_pipeline(fast_config(out, stages="cell-steady,eigen"))
    assert built_blocks(caplog.records) == [(-1, 1), (-1, -1), (1, 1), (1, -1)]


def test_missing_stage_input_names_the_stage(tmp_path):
    out = tmp_path / "run"
    with pytest.raises(PipelineError) as err:
        run_pipeline(fast_config(out, stages="kernel"))
    assert err.value.stage == "kernel"
    assert str(err.value) == (
        f"stage kernel: missing input k_bar.csv at {out / 'k_bar.csv'} "
        "(run its stage first)")


def test_oracle_stage_is_off_by_default_but_runs(tmp_path):
    out = tmp_path / "run"
    run_pipeline(fast_config(out, stages="mesh"))
    manifest = run_pipeline(fast_config(out, stages="oracle"))
    assert "oracle.csv" in manifest["artifacts"]


def test_asymmetric_oracle_samples_exit_3(tmp_path, capsys, monkeypatch,
                                         cell_mesh_g1):
    # asymmetric samples are a fault of the march, not of its input
    def asymmetric(system, tau, horizon):
        return KernelSamples([tau], [[[1.0, 0.5], [0.0, 1.0]]])

    monkeypatch.setattr(pipeline, "solve_cell_unsteady", asymmetric)
    mesh = tmp_path / "cell.mesh"
    write_mesh(cell_mesh_g1, mesh)
    assert main(["oracle", "--mesh", str(mesh), "--tau", "1e-3",
                 "--horizon", "1e-3", "--out", str(tmp_path / "o.csv")]) == 3
    assert capsys.readouterr().err == (
        "error: stage oracle: kernel samples asymmetric by 5.00e-01\n")
    assert not (tmp_path / "o.csv").exists()


def test_failed_stage_keeps_partial_files_only(tmp_path):
    out = tmp_path / "run"
    run_pipeline(fast_config(out, stages="mesh,cell-steady,eigen"))
    # corrupt the spectrum so the kernel stage fails while reading
    (out / "spectrum.csv").write_text("k,lambda,a1,a2\n1,-4.0,0.1,0.1\n")
    with pytest.raises(PipelineError) as err:
        run_pipeline(fast_config(out, stages="kernel"))
    assert err.value.stage == "kernel"
    assert not (out / "kernel.csv").exists()


def test_render_tables():
    text = render_table(np.array([40.0, 51.0, 114.0]),
                        np.array([[-0.5, -0.5], [-0.4, 0.4], [0.02, 0.02]]))
    assert len(text.splitlines()) == 4


# ------------------------------------------------------------------- CLI


def test_cli_mesh_and_validation(tmp_path, capsys):
    out = tmp_path / "cell.mesh"
    code = main(["mesh", "--geometry", "cell", "--gamma", "1.0",
                 "--h", "0.1", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out

    code = main(["mesh", "--geometry", "cell", "--h", "0.1",
                 "--out", str(out)])
    assert code == 2
    assert "--gamma is required" in capsys.readouterr().err

    code = main(["mesh", "--geometry", "rect", "--h", "0.5", "--lx", "2",
                 "--ly", "1", "--out", str(tmp_path / "r.mesh")])
    assert code == 0


def test_cli_cell_chain(tmp_path, capsys):
    mesh = tmp_path / "cell.mesh"
    assert main(["mesh", "--geometry", "cell", "--gamma", "1.0",
                 "--h", "0.1", "--out", str(mesh)]) == 0
    kbar = tmp_path / "k_bar.csv"
    assert main(["cell-steady", "--mesh", str(mesh), "--out", str(kbar)]) == 0
    spectrum = tmp_path / "spectrum.csv"
    assert main(["eigen", "--mesh", str(mesh), "--modes", "4",
                 "--out", str(spectrum)]) == 0
    kernel = tmp_path / "kernel.csv"
    assert main(["kernel", "--spectrum", str(spectrum), "--kbar", str(kbar),
                 "--out", str(kernel)]) == 0
    capsys.readouterr()
    domain = tmp_path / "domain.mesh"
    assert main(["mesh", "--geometry", "rect", "--lx", "2.0",
                 "--ly", "1.0", "--h", "0.25", "--out", str(domain)]) == 0
    prefix = str(tmp_path / "macro")
    bc = ("left=natural:0,right=natural:0,top=natural:0,"
          "bottom=natural:0")
    code = main(["macro", "--mesh", str(domain), "--model", str(kernel),
                 "--sigma", "0.5", "--tau", "1e-4", "--t-final", "4e-4",
                 "--bc", bc, "--snapshots", "4e-4",
                 "--out-prefix", prefix])
    assert code == 0
    assert (tmp_path / "macro_ledger.csv").exists()
    capsys.readouterr()
    # a perforated cell mesh is not a macro domain: its hole boundary has
    # no condition and the command must refuse it cleanly
    code = main(["macro", "--mesh", str(mesh), "--model", str(kernel),
                 "--sigma", "0.5", "--tau", "1e-4", "--t-final", "4e-4",
                 "--bc", bc, "--out-prefix", str(tmp_path / "m2")])
    assert code == 2
    assert "no boundary condition" in capsys.readouterr().err


def test_cli_error_exit_codes(tmp_path, capsys):
    # unreadable mesh file is a validation error
    bad = tmp_path / "bad.mesh"
    bad.write_text("MESH2D 1\nNV 1\n")
    code = main(["cell-steady", "--mesh", str(bad),
                 "--out", str(tmp_path / "k.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err

    code = main(["mesh", "--geometry", "cell", "--gamma", "99",
                 "--h", "0.1", "--out", str(tmp_path / "c.mesh")])
    assert code == 2

    # a missing input is named the way the pipeline names it
    for args in (["cell-steady", "--mesh", str(tmp_path / "none.mesh")],
                 ["kernel", "--spectrum", str(tmp_path / "none.csv"),
                  "--kbar", str(tmp_path / "k.csv")]):
        code = main(args + ["--out", str(tmp_path / "x.csv")])
        assert code == 2
        name = "cell.mesh" if args[0] == "cell-steady" else "spectrum.csv"
        assert (f"missing input {name} at {args[2]} (run its stage first)"
                in capsys.readouterr().err)

    # a NaN threshold is refused before it could drop every mode
    code = main(["kernel", "--spectrum", str(tmp_path / "s.csv"), "--kbar",
                 str(tmp_path / "k.csv"), "--epsilon", "nan", "--modes", "1",
                 "--out", str(tmp_path / "kernel.csv")])
    assert code == 2
    assert "epsilon must be finite" in capsys.readouterr().err

    # pipeline config errors are validation errors as well, and a value
    # from the file is named with its line and key: an unknown key, a
    # value that does not parse and one that breaks its rule
    cfg = tmp_path / "p.cfg"
    for text, message in (
            ("made_up=1\n", "made_up = 1: unknown config key"),
            ("# gamma\ngamma = abc\n",
             "gamma = abc: could not convert string to float: 'abc'"),
            ("gamma = 1.0\n\ncell_h = 0\n",
             "cell_h = 0: cell_h must be positive"),
            ("svg = maybe\n", "svg = maybe: expected a boolean")):
        cfg.write_text(text)
        code = main(["pipeline", "--config", str(cfg),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        line = text.count("\n")
        assert f"{cfg}:{line}: {message}" in capsys.readouterr().err

    # a config file that is not ASCII is named with its line
    cfg.write_text("gamma = 1.0\ngamma = 3.0\u00e9\n", encoding="utf-8")
    code = main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{cfg}:2: not ASCII text" in capsys.readouterr().err

    # a bad boundary spec stops the run before its first stage
    cfg.write_text("".join(f"{k}={v}\n" for k, v in FAST.items())
                   + "bc=left=warp:0\n")
    code = main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "unknown boundary kind 'warp'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_bad_macro_time_grid_stops_the_run_before_its_first_stage(
        tmp_path, capsys):
    # the default snapshots reach 7.5e-4, past t_final: the macro stage's
    # own grid check refuses the config before the mesh stage runs
    cfg = tmp_path / "p.cfg"
    cfg.write_text("cell_h = 0.1\nmodes = 2\nt_final = 5e-4\n")
    code = main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert ("snapshot time 0.00075 outside [0.0, 0.0005]"
            in capsys.readouterr().err)
    assert not (tmp_path / "run" / "cell.mesh").exists()
    # a t_final that is no whole number of steps, and a grid that only
    # the macro stage reads, which a run without it does not check
    with pytest.raises(ValueError, match="not close to a multiple of tau"):
        parse_config(overrides={"t_final": "7.55e-4", "snapshots": "0"})
    assert parse_config(overrides={"t_final": "5e-4", "stages": "mesh"})


def _kernel_inputs(tmp_path, spectrum="k,lambda,a1,a2\n1,4.0,0.1,0.1\n",
                   kbar="i,j,value\n1,1,1.0\n1,2,0.0\n2,1,0.0\n2,2,1.0\n"):
    """Write the kernel subcommand's two inputs; returns its arguments."""
    paths = tmp_path / "s.csv", tmp_path / "k.csv"
    for path, text in zip(paths, (spectrum, kbar)):
        path.write_text(text)
    return ["kernel", "--spectrum", str(paths[0]), "--kbar", str(paths[1]),
            "--out", str(tmp_path / "o.csv")]


def test_a_bad_spectrum_is_named_without_modes(tmp_path, capsys):
    # with two inputs, the message names the file at fault and the stage
    # that read it, also when the spectrum is read to count its modes
    args = _kernel_inputs(tmp_path,
                          spectrum="k,lambda,a1,a2\n1,-4.0,0.1,0.1\n")
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"error: stage kernel: {tmp_path / 's.csv'}: line 2: eigenvalue "
        "must be finite and positive, got -4.0\n")


def test_a_bad_permeability_header_is_named(tmp_path, capsys):
    args = _kernel_inputs(tmp_path, kbar="x\n")
    assert main(args + ["--modes", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: stage kernel: {tmp_path / 'k.csv'}: line 1: bad header "
        "'x', expected 'i,j,value'\n")


def failing_runner(error):
    """A stage runner that stages one output file, then raises error."""
    def runner(config, files):
        with open(files.path("probe.txt"), "w", encoding="ascii") as handle:
            handle.write("unfinished\n")
        raise error
    return runner


@pytest.mark.parametrize("error, code, message", [
    pytest.param(error, code, message, id=type(error).__name__)
    for error, code, message in (
        (ValueError("bad value"), 2, "bad value"),
        (FormatError("bad field", line=3), 2, "line 3: bad field"),
        (FileNotFoundError("no such file"), 2, "no such file"),
        (SolverError("no convergence"), 3, "no convergence"),
        (MeshQualityError("a sliver"), 3, "a sliver"),
        (ZeroDivisionError("division by zero"), 3, "division by zero"),
        (MemoryError(), 4, "out of memory"),
        (IndexError("simulated bug"), None, None))])
@pytest.mark.parametrize("stage", ["mesh", "cell-steady"])
def test_exit_code_follows_the_exception_class(tmp_path, capsys, monkeypatch,
                                               error, code, message, stage):
    # input faults exit 2, numerical failures 3 and a lack of memory 4,
    # on the pipeline path and on a subcommand alike; any other
    # exception is a bug and escapes with its traceback (exit 1).  The
    # failed stage's outputs stay .partial files either way
    monkeypatch.setitem(pipeline._STAGE_RUNNERS, stage, failing_runner(error))
    out = tmp_path / "run"
    if stage == "mesh":
        argv = ["pipeline", "--only", "mesh", "--out", str(out)]
    else:
        argv = ["cell-steady", "--mesh", str(tmp_path / "cell.mesh"),
                "--out", str(out / "k_bar.csv")]
    if code is None:
        with pytest.raises(type(error), match="simulated bug"):
            main(argv)
    else:
        assert main(argv) == code
        assert capsys.readouterr().err == f"error: stage {stage}: {message}\n"
    assert (out / "probe.txt.partial").exists()
    assert not (out / "probe.txt").exists()


@pytest.mark.parametrize("line, message", [
    ("f=1,2,3", "f must have two entries"),
    ("snapshots=-1", "snapshots must be nonnegative")])
def test_cli_list_keys_fail_before_any_stage(tmp_path, capsys, line,
                                             message):
    # these used to be refused only by the macro stage, after the cell
    # stages had run
    cfg = tmp_path / "p.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in FAST.items())
                   + line + "\n")
    code = main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("times, stamp", [
    ("2e-4,2e-4", "0.0002"), ("1e-4,1.0000001e-4", "0.0001")])
def test_snapshots_that_share_a_file_stamp_are_refused(tmp_path, capsys,
                                                       times, stamp):
    # two snapshots with one stamp would write the same files: the macro
    # stage used to fail as it committed them, leaving its ledger behind
    # as a .partial file
    message = f"snapshots repeat the file stamp {stamp}"
    with pytest.raises(ValueError, match=message):
        fast_config(tmp_path / "run", snapshots=times)
    out = tmp_path / "run"
    run_pipeline(fast_config(out, stages="mesh,cell-steady,eigen,kernel"))
    before = sorted(os.listdir(out))
    cfg = tmp_path / "p.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in FAST.items())
                   + f"snapshots={times}\n")
    code = main(["pipeline", "--config", str(cfg), "--out", str(out),
                 "--only", "macro"])
    assert code == 2
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(out)) == before
    assert not any(name.endswith(".partial") for name in before)


@pytest.mark.parametrize("stages", [",", "", " , ", ()])
def test_an_empty_stage_list_is_refused(tmp_path, stages):
    # no stage at all used to run nothing and rewrite the manifest empty
    with pytest.raises(ValueError, match="stages = .*: no stage named"):
        parse_config(overrides={"stages": stages})
    cfg = tmp_path / "p.cfg"
    cfg.write_text("gamma = 1.0\nstages =\n")
    with pytest.raises(ValueError, match=f"{cfg}:2: stages = : no stage "):
        parse_config(cfg)


@pytest.mark.parametrize("only", [",", ""])
def test_cli_empty_stage_list_leaves_the_run_untouched(tmp_path, capsys,
                                                       only):
    out = tmp_path / "run"
    run_pipeline(fast_config(out, stages="mesh"))
    before = {name: (out / name).read_bytes() for name in os.listdir(out)}
    cfg = tmp_path / "p.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in FAST.items()))
    code = main(["pipeline", "--config", str(cfg), "--out", str(out),
                 "--only", only])
    assert code == 2
    assert "no stage named" in capsys.readouterr().err
    cfg.write_text(cfg.read_text() + "stages =\n")
    code = main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert f"{cfg}:{len(FAST) + 1}: stages = : no stage named" in (
        capsys.readouterr().err)
    assert {name: (out / name).read_bytes()
            for name in os.listdir(out)} == before


def test_cli_pipeline_and_resume(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = tmp_path / "p.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in FAST.items()
                           if k != "svg") + "svg=false\n")
    code = main(["pipeline", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "manifest.json").exists()
    capsys.readouterr()
    code = main(["pipeline", "--config", str(cfg), "--out", str(out),
                 "--only", "macro"])
    assert code == 0
    # missing inputs surface as a numbered failure, not a traceback
    code = main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "fresh"), "--only", "macro"])
    assert code == 2


def test_cli_verbose_logs_each_block_it_builds(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in FAST.items()))
    manifests = []
    for flags, built in (([], 0), (["-v"], 2)):
        out = tmp_path / f"run{len(flags)}"
        run_pipeline(fast_config(out, stages="mesh"))
        assert main([*flags, "pipeline", "--config", str(cfg), "--out",
                     str(out), "--only", "oracle"]) == 0
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if "cell block" in line]
        assert len(lines) == built
        assert all(line.startswith("porohom.fem: cell block (-1, ")
                   for line in lines)
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert "sparse LU: n=" in err
    assert manifests[0]["artifacts"] == manifests[1]["artifacts"]
    assert not logging.getLogger("porohom").handlers


def test_cli_verbose_macro_logs_its_factors_and_state(tmp_path, capsys):
    mesh = gen_rect_mesh(2.0, 1.0, 0.25)
    write_mesh(mesh, tmp_path / "domain.mesh")
    write_model_csv(build_kernel_model(KBAR3, LAMS3, COEF3),
                    tmp_path / "kernel.csv")
    bc = "left=natural:0,right=natural:0,top=natural:0,bottom=natural:0"
    assert main(["-v", "macro", "--mesh", str(tmp_path / "domain.mesh"),
                 "--model", str(tmp_path / "kernel.csv"), "--sigma", "0.5",
                 "--tau", "1e-4", "--t-final", "4e-4", "--bc", bc,
                 "--snapshots", "0,2e-4,4e-4",
                 "--out-prefix", str(tmp_path / "macro")]) == 0
    err = capsys.readouterr().err.splitlines()
    # K_eff when the problem is built, K_tilde for the t = 0 solve
    factors = [i for i, line in enumerate(err) if "sparse LU: n=" in line]
    runs = [i for i, line in enumerate(err)
            if line.startswith("porohom.macro: macro run: 4 steps")]
    assert len(factors) == 2 and len(runs) == 1 and factors[1] < runs[0]
    nv = mesh.num_vertices
    assert err[runs[0]].endswith(
        f"state array 3x{nv} ({3 * nv * 8 / 1e6:.1f} MB), "
        "2 snapshot copies")


# sha256 of the cell artifacts of a gamma = 3, h = 0.05 run, recorded
# with numpy 2.4 and scipy 1.17 on x86-64: a change of the cell
# numerics at the rounding level moves them
PINNED_CELL_SHA256 = {
    "k_bar.csv":
        "6ae69087ca4f2589ee1747e2c06a68661764d19e14a8481a1ee209b374a2cc4f",
    "spectrum.csv":
        "6c345dde23f0389ab097eea43fd76fd0ea5717223db4adf6a99fea5426eddf80",
    "table3.txt":
        "fb90a01430671bdf356df8da1b97ec46192baba808fabe05193b9216a3db1aac",
    "oracle.csv":
        "5e5e3c442ae453031428a7866857e68b514d9900cf50903e83c77e7afabd68d8",
}


def test_cell_artifact_bytes_are_pinned(tmp_path):
    out = tmp_path / "run"
    run_pipeline(parse_config(overrides={
        "cell_h": "0.05", "modes": "20", "oracle_horizon": "2e-3",
        "stages": "mesh,cell-steady,eigen,oracle", "out_dir": str(out)}))
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in PINNED_CELL_SHA256}
    assert got == PINNED_CELL_SHA256


# sha256 of the same cell artifacts on the nudged gamma = 3, h = 0.1 cell
# of conftest.cell_mesh_nudged, which is no orbit of the cell symmetries,
# so its solvers run on the one block of the whole operator; recorded as
# PINNED_CELL_SHA256 was
PINNED_NUDGED_SHA256 = {
    "k_bar.csv":
        "9448a4a561c5f252a14311b7f4fddbfc161ab77c732fd6f6498885abc1ba414a",
    "spectrum.csv":
        "42bab75f8a5b02aee19c47ed9b1ff1b6ab4f291e47b5176d9f141621b7519a53",
    "table3.txt":
        "915c06b00d50402f0b6182e9e4b0f10f61d3ff5faaf0e95bad8acccae6db770f",
    "oracle.csv":
        "a1b474c5ac01d78e3c0f50984f221011f3f1541281efcbbd799993ae2caf9340",
}


def test_whole_operator_artifact_bytes_are_pinned(tmp_path,
                                                  cell_mesh_nudged):
    write_mesh(cell_mesh_nudged, tmp_path / "cell.mesh")
    got = run_pipeline(parse_config(overrides={
        "modes": "12", "oracle_horizon": "2e-3",
        "stages": "cell-steady,eigen,oracle", "out_dir": str(tmp_path)}))
    assert got["artifacts"] == PINNED_NUDGED_SHA256


# sha256 of the kernel and macro artifacts of a gamma = 3, h = 0.05,
# 20-mode cell, marched with two boundary specs whose data reach the
# gradient loads and the nodal integrals (the default config's f = 0 and
# source = 0 reach neither), recorded with numpy 2.4 and scipy 1.17 on
# x86-64: a change of the macro numerics at the rounding level moves them
PINNED_MACRO_SHA256 = {
    "kernel.csv":
        "b67b35e12c8d5b3f17f8153909354d01166747e8f1b23b8b14cbc9c38b5922f6",
    "all-natural, f = (1, 0.5)": {
        "macro_ledger.csv":
            "a81012f4d77f349b57c9dabb08e5a08931dfb4e2cafcd9079fcdd3b4cb805c56",
        "macro_state_0.csv":
            "26bec19c6909473ff5d05355f3de6731883b0777b63a852d96994a4823146a6e",
        "macro_state_0.00025.csv":
            "f569f797919548d5d20530953de8196d8fb6f57adbe7c61b150619afce2c8fba",
        "macro_state_0.0005.csv":
            "f914001201ca5336a6efb2695fb92ca2bd2f87b41f215ab8ff4e6a2881e5b268",
        "macro_state_0.00075.csv":
            "57d73922b3eb66fe5747445338a8aaf3d6a5fb8df2a240f2489038caa51fbc6e",
    },
    "natural flux, Dirichlet side, source 0.3": {
        "macro_ledger.csv":
            "f560f984020533643b2cd41f7a1cffc5647d17112be4a060ed204c7e71447767",
        "macro_state_0.csv":
            "20bfcded5cdb6fb3acbb05bcc65f4d9ac1ef74a20414ff81a99aa48675fdd4c3",
        "macro_state_0.00025.csv":
            "cc714b2d939f9b1b167c452c1b14ed5b165167ed64e34e67a05c54261ae575da",
        "macro_state_0.0005.csv":
            "b109b666cfb941c0fdb27de1ff43efbfe7cc3eb66860b07ea48afd758b121322",
        "macro_state_0.00075.csv":
            "bb8c756c1cdeed6c300a1aab39033b10c62ef67d42bd01071436173de9d4a894",
    },
}
_PINNED_MACRO_DATA = {
    "all-natural, f = (1, 0.5)": {
        "bc": "left=natural:0,right=natural:0,top=natural:0,"
              "bottom=natural:0",
        "f": "1,0.5"},
    "natural flux, Dirichlet side, source 0.3": {
        "bc": "left=natural:0.5,right=dirichlet:1,top=natural:0,"
              "bottom=natural:0",
        "source": "0.3"},
}


def test_macro_artifact_bytes_are_pinned(tmp_path):
    base = {"cell_h": "0.05", "modes": "20", "svg": "false",
            "out_dir": str(tmp_path)}
    got = run_pipeline(parse_config(overrides=dict(
        base, stages="mesh,cell-steady,eigen,kernel")))["artifacts"]
    got = {"kernel.csv": got["kernel.csv"]}
    for case, data in _PINNED_MACRO_DATA.items():
        got[case] = run_pipeline(parse_config(overrides=dict(
            base, stages="macro", **data)))["artifacts"]
    assert got == PINNED_MACRO_SHA256


def test_cli_stages_match_the_pipeline(tmp_path, capsys):
    # the subcommands run the pipeline's stage code, so the same inputs
    # give the same bytes
    ref = tmp_path / "ref"
    run_pipeline(fast_config(ref))
    cli = tmp_path / "cli"
    cell, domain = str(ref / "cell.mesh"), str(ref / "macro.mesh")
    assert main(["cell-steady", "--mesh", cell,
                 "--out", str(cli / "k_bar.csv")]) == 0
    assert main(["eigen", "--mesh", cell, "--modes", FAST["modes"],
                 "--out", str(cli / "spectrum.csv")]) == 0
    assert main(["kernel", "--spectrum", str(cli / "spectrum.csv"),
                 "--kbar", str(cli / "k_bar.csv"), "--modes", FAST["modes"],
                 "--out", str(cli / "kernel.csv")]) == 0
    capsys.readouterr()
    assert main(["macro", "--mesh", domain, "--model", str(cli / "kernel.csv"),
                 "--sigma", "0.5", "--tau", FAST["tau"],
                 "--t-final", FAST["t_final"], "--bc", DEFAULTS["bc"],
                 "--snapshots", FAST["snapshots"], "--svg",
                 "--out-prefix", str(cli / "run")]) == 0
    wrote = capsys.readouterr().out.splitlines()
    assert wrote == [f"wrote {cli / name}" for name in (
        "run_state_0.csv", "run_field_0.svg", "run_state_0.0004.csv",
        "run_field_0.0004.svg", "run_ledger.csv")]
    ref_names = ["k_bar.csv", "spectrum.csv", "table3.txt", "kernel.csv",
                 "macro_state_0.csv", "macro_field_0.svg",
                 "macro_state_0.0004.csv", "macro_field_0.0004.svg",
                 "macro_ledger.csv"]
    for name in ref_names:
        cli_name = name.replace("macro_", "run_")
        assert (cli / cli_name).read_bytes() == (ref / name).read_bytes(), \
            name
    assert sorted(p.name for p in cli.iterdir()) == sorted(
        n.replace("macro_", "run_") for n in ref_names)


def test_cli_macro_run_imports_no_heavy_modules(tmp_path, model3):
    # textio, fem and svgplot import these lazily, or not at all, to keep
    # the resident memory of a run down; a fresh interpreter shows them
    from porohom.kernel_model import write_model_csv
    from porohom.meshing import gen_rect_mesh, write_mesh

    out = tmp_path / "run"
    out.mkdir()
    write_mesh(gen_rect_mesh(2.0, 1.0, 0.25), out / "macro.mesh")
    write_model_csv(model3, out / "kernel.csv")
    cfg = tmp_path / "p.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in FAST.items()))
    heavy = ("multiprocessing", "concurrent.futures.process",
             "scipy.sparse.csgraph", "xml.sax")
    args = ["pipeline", "--config", str(cfg), "--out", str(out),
            "--only", "macro"]
    script = ("import sys\n"
              "from porohom.cli import main\n"
              f"assert main({args!r}) == 0\n"
              f"print([name for name in {heavy!r} if name in sys.modules])\n")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(porohom.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (out / "macro_field_0.0004.svg").exists()
    assert done.stdout.splitlines()[-1] == "[]"
