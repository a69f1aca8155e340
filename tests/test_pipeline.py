"""End-to-end pipeline, its config file handling and the CLI wrapper."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from porohom.cli import main
from porohom.cell_spectral import read_spectrum_csv
from porohom.kernel_model import KernelModel, read_model_csv
from porohom.pipeline import (
    DEFAULTS,
    STAGES,
    PipelineError,
    parse_config,
    render_table,
    run_pipeline,
)

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
    pooled(2)  # the second run formats its states in two workers
    m2 = run_pipeline(fast_config(tmp_path / "b"))
    assert m1["artifacts"] == m2["artifacts"]
    assert not multiprocessing.active_children()


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


def test_pipeline_shares_one_cell_system(tmp_path, monkeypatch):
    # cell-steady and eigen reuse one assembly, and each of its blocks
    # is factored exactly once
    from porohom import fem

    systems, factored = [], []
    build, factor = fem.StokesSystem.__init__, fem.SparseFactor.__init__

    def building(self, mesh):
        systems.append(self)
        build(self, mesh)

    def factoring(self, matrix):
        factored.append(matrix)
        factor(self, matrix)

    monkeypatch.setattr(fem.StokesSystem, "__init__", building)
    monkeypatch.setattr(fem.SparseFactor, "__init__", factoring)
    out = tmp_path / "run"
    run_pipeline(fast_config(out, stages="mesh"))
    run_pipeline(fast_config(out, stages="cell-steady,eigen"))
    assert len(systems) == 1
    blocks = systems[0].blocks
    assert len(blocks) == 4
    assert sorted(map(id, factored)) == sorted(
        id(block.operator) for block in blocks)


def test_missing_stage_input_names_the_stage(tmp_path):
    with pytest.raises(PipelineError, match="missing input") as err:
        run_pipeline(fast_config(tmp_path / "run", stages="kernel"))
    assert err.value.stage == "kernel"


def test_oracle_stage_is_off_by_default_but_runs(tmp_path):
    out = tmp_path / "run"
    run_pipeline(fast_config(out, stages="mesh"))
    manifest = run_pipeline(fast_config(out, stages="oracle"))
    assert "oracle.csv" in manifest["artifacts"]


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

    # a NaN threshold is refused before it could drop every mode
    code = main(["kernel", "--spectrum", str(tmp_path / "s.csv"), "--kbar",
                 str(tmp_path / "k.csv"), "--epsilon", "nan", "--modes", "1",
                 "--out", str(tmp_path / "kernel.csv")])
    assert code == 2
    assert "epsilon must be finite" in capsys.readouterr().err

    # pipeline config errors are validation errors as well
    cfg = tmp_path / "p.cfg"
    cfg.write_text("made_up=1\n")
    code = main(["pipeline", "--config", str(cfg),
                 "--out", str(tmp_path / "run")])
    assert code == 2


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
