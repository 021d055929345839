import dataclasses
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nelsonlab import cli, ibc, nelson, psido
from nelsonlab.cli import (
    EXPERIMENTS,
    ConfigError,
    GuardError,
    check_guards,
    config_canonical_text,
    main,
    parse_config_text,
    resolve_config,
    run_ibc_identity,
)
from nelsonlab.grid import Grid
from nelsonlab.operators import lanczos_peak_bytes, opnorm


def run_cli(*args) -> int:
    return main(list(args))


def read_rows(out_dir):
    lines = (out_dir / "results.csv").read_text().strip().splitlines()
    assert lines[0] == "experiment,parameters,lhs,rhs,status"
    rows = []
    for line in lines[1:]:
        experiment, params, lhs, rhs, status = line.split(",")
        rows.append((experiment, dict(kv.split("=", 1) for kv in params.split(";")), float(lhs), float(rhs), status))
    return rows


def test_list_prints_every_experiment(capsys):
    assert run_cli("--list") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == list(EXPERIMENTS)
    assert len(EXPERIMENTS) == 8


def test_validate_default_config(capsys):
    assert run_cli("--validate") == 0
    out = capsys.readouterr().out
    assert "[model]" in out and "[sweep]" in out and "[tolerances]" not in out
    assert "npts = 8" in out


def test_shipped_default_config_matches_builtin():
    builtin = config_canonical_text(resolve_config(None))
    shipped = config_canonical_text(resolve_config("configs/default.cfg"))
    assert shipped == builtin


def test_unknown_key_reports_line(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[model]\nnpts = 8\nbogus = 3\n")
    assert run_cli("--validate", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "bogus" in err


def test_malformed_line_reports_line(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[model]\n\nnpts 8\n")
    assert run_cli("--validate", "--config", str(cfg)) == 2
    assert "line 3" in capsys.readouterr().err


def test_unreadable_value_names_field(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[model]\nnpts = seven\n")
    assert run_cli("--validate", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "npts" in err and "seven" in err


@pytest.mark.parametrize(
    "text, named",
    [
        # a bound loosened from a config turned the honest domain-regularity FAIL into exit 0
        ("[tolerances]\ngrowth_ratio_min = 1.0\n", "[tolerances]"),
        ("[tolerances]\ngross_rtol = inf\n", "[tolerances]"),
        ("[sweep]\nweyl_coupling = 0.3\n", "weyl_coupling"),
        ("[sweep]\nrearr_box = 32.0\n", "rearr_box"),
        ("[sweep]\ndemo_g_const = 4.0\n", "demo_g_const"),
    ],
    ids=["growth-ratio-bound", "gross-bound", "weyl-coupling", "rearr-box", "demo-g-const"],
)
def test_bounds_and_probe_constants_are_not_config_keys(tmp_path, capsys, text, named):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "run"
    for extra in (("--validate",), ("--out", str(out))):
        assert run_cli("--experiment", "domain-regularity", "--config", str(cfg), *extra) == 2
        assert named in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("[model]\nnpts = 8\nnpts = 16\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside"):
        parse_config_text("npts = 8\n")


def test_comments_and_blank_lines_ignored():
    entries = parse_config_text("# header\n\n[model]\nnpts = 16  # inline\n")
    assert entries == {("model", "npts"): "16"}


def test_saturation_guard_names_cutoff(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[sweep]\nlams = 1.0, 99.0\n")
    assert run_cli("--validate", "--config", str(cfg)) == 3
    err = capsys.readouterr().err
    assert "saturation" in err and "99" in err


def test_dense_dimension_guard_only_for_dense_experiments():
    # at npts 64, n_max 2 the top creation block of build_ibc alone is 4.1 GiB;
    # domain-regularity reads [sweep] sizes instead, and no experiment no estimate
    cfg = resolve_config(None)
    cfg["model"]["npts"] = 64
    with pytest.raises(GuardError, match=r"\[model\] npts, n_max: memory guard: build_ibc and the assembled models would hold 26456920328 bytes"):
        check_guards(cfg, "ibc-identity")
    check_guards(cfg, "domain-regularity")
    assert check_guards(cfg, None) is None


def test_domain_regularity_gram_guard_refuses_before_assembly(tmp_path, capsys, monkeypatch):
    def refuse(spec):
        raise AssertionError("assembled a model past the guard")

    monkeypatch.setattr(nelson, "assemble_free", refuse)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[model]\nn_max = 3\n[sweep]\nsizes = 8, 16, 32, 128\ndomain_lams = 2, 4, 8, 16\n")
    # the step 2 -> 3 at the last sizes entry has side 128 x C(129, 2) = 1056768:
    # a full Lanczos basis of 256 such vectors is 3.0 GiB, and the apply's workspace 4.4 GiB;
    # the four models it runs beside hold 0.355 GiB, 0.349 GiB of it the occupation table at npts 128
    base = ("--experiment", "domain-regularity", "--config", str(cfg))
    out = tmp_path / "run"
    for extra in (("--validate",), ("--out", str(out))):
        assert run_cli(*base, *extra) == 3
        err = capsys.readouterr().err
        assert "sizes entry 128" in err and "domain_regularity_norms and the assembled models would hold 8340081984 bytes" in err
    assert not out.exists()
    # other experiments never read sizes
    assert run_cli("--experiment", "weyl-identities", "--config", str(cfg), "--validate") == 0
    # the defaults reach a step side of 32 x C(32,1) = 1024
    assert check_guards(resolve_config(None), "domain-regularity") < 2**30


def test_lattice_guard_rejects_non_power_of_two():
    cfg = resolve_config(None)
    cfg["model"]["npts"] = 12
    with pytest.raises(GuardError, match="power of two"):
        check_guards(cfg, None)


def test_paired_sweep_lengths_checked():
    cfg = resolve_config(None)
    cfg["sweep"]["sizes"] = [8, 16]
    with pytest.raises(ConfigError, match="pair up"):
        check_guards(cfg, None)


@pytest.mark.parametrize(
    "section, key, value, experiment",
    [
        ("model", "sigma", "-1", "renorm-convergence"),
        ("model", "mass", "nan", "ibc-identity"),
        ("model", "mass", "1e300", "renorm-convergence"),
        ("sweep", "lams", "-1, 2", "renorm-convergence"),
        ("sweep", "domain_lams", "0, 4, 8", "domain-regularity"),
        ("sweep", "psido_npts", "12", "psido-calculus"),
        ("sweep", "psido_npts", "2", "psido-calculus"),
        ("sweep", "parametrix_npts", "48", "psido-calculus"),
        ("sweep", "psido_npts", "4096", "psido-calculus"),
        ("sweep", "psido_npts", "8192", "psido-calculus"),
        ("sweep", "parametrix_npts", "8192", "psido-calculus"),
        ("sweep", "rearr_npts", "100", "appendix-inequalities"),
        ("model", "coupling", "0", "gross-transform"),
        ("model", "coupling", "-0.0", "domain-regularity"),
        ("model", "coupling", "1e-320", "gross-transform"),
        ("model", "npts", "64", "renorm-convergence"),
        ("model", "npts", "64", "ibc-identity"),
    ],
)
def test_library_refusals_exit_three_before_assembly(
    tmp_path, capsys, monkeypatch, section, key, value, experiment
):
    _assert_refused_before_assembly(tmp_path, capsys, monkeypatch, f"[{section}]\n{key} = {value}\n", key, experiment)


def test_gross_transform_guard_reads_the_safe_row_statement(tmp_path, capsys, monkeypatch):
    # npts 128, n_max 2 states 22 MiB on the safe rows, where the dense Fock
    # factors of one X stated 12.6 GiB.  npts 64, n_max 3 passes the
    # assemble_free guard (49 MiB) and is refused by the kernel's own
    # statement beside the model, 5.4 GiB
    cfg = tmp_path / "admitted.cfg"
    cfg.write_text("[model]\nnpts = 128\n")
    assert run_cli("--experiment", "gross-transform", "--config", str(cfg), "--validate") == 0
    capsys.readouterr()
    text = "[model]\nnpts = 64\nn_max = 3\n"
    stated = "[model] npts, n_max: memory guard: transformed_hamiltonian_check and the assembled models would hold 5772408872 bytes"
    _assert_refused_before_assembly(tmp_path, capsys, monkeypatch, text, stated, "gross-transform")


@pytest.mark.parametrize(
    "text, key, experiment",
    [
        ("[model]\nnpts = 2\nn_max = 1\n[sweep]\nlams = 0.5\n", "lams", "renorm-convergence"),
        ("[sweep]\nsizes = 8\ndomain_lams = 2.0\n", "sizes", "domain-regularity"),
        ("[sweep]\nsizes = 8, 16\ndomain_lams = 2, 4\npowers = 0.5, 0.5\n", "powers", "domain-regularity"),
        ("[sweep]\nquad_lams = 4.0\n", "quad_lams", "vacuum-energy"),
        ("[sweep]\nlams =\n", "lams", "gross-transform"),
        ("[sweep]\nlams =\n", "lams", "ibc-identity"),
        ("[sweep]\npowers =\n", "powers", "domain-regularity"),
        ("[sweep]\nweyl_n_max =\n", "weyl_n_max", "weyl-identities"),
        ("[sweep]\nweyl_n_max = 10\n", "weyl_n_max", "weyl-identities"),
        # the window must lie in the safe sectors of the smallest truncation, 0..min(weyl_n_max) - 2 = 8
        ("[sweep]\nweyl_sector_cap = -1\n", "weyl_sector_cap", "weyl-identities"),
        ("[sweep]\nweyl_sector_cap = 9\n", "weyl_sector_cap", "weyl-identities"),
        ("[sweep]\nomegas =\n", "omegas", "appendix-inequalities"),
        ("[sweep]\nfuzz_pairs = 0\n", "fuzz_pairs", "appendix-inequalities"),
        ("[sweep]\nfuzz_samples = 0\n", "fuzz_samples", "appendix-inequalities"),
        ("[sweep]\nxis =\n", "xis", "appendix-inequalities"),
        ("[sweep]\nxis = 4.0\n", "xis", "appendix-inequalities"),
        ("[sweep]\ndraws = 0\n", "draws", "psido-calculus"),
        ("[sweep]\nomegas = 0.0, 1.0\n", "omegas", "appendix-inequalities"),
        ("[sweep]\nxis = -4.0, 8.0\n", "xis", "appendix-inequalities"),
    ],
    ids=[
        "single-cutoff",
        "single-size",
        "repeated-power",
        "single-quadrature-cutoff",
        "no-cutoff-gross",
        "no-cutoff-ibc",
        "no-power",
        "no-weyl-cap",
        "single-weyl-cap",
        "negative-weyl-window",
        "unsafe-weyl-window",
        "no-omega",
        "no-fuzz-pair",
        "no-fuzz-sample",
        "no-offset",
        "single-offset",
        "no-draw",
        "nonpositive-omega",
        "nonpositive-offset",
    ],
)
def test_sweep_policies_exit_three_before_assembly(tmp_path, capsys, monkeypatch, text, key, experiment):
    # without these policies a run dies part way with a traceback and exit 1,
    # or exits 0 with rows missing or measuring nothing
    _assert_refused_before_assembly(tmp_path, capsys, monkeypatch, text, key, experiment)


def _assert_refused_before_assembly(tmp_path, capsys, monkeypatch, text, key, experiment):
    """The config ``text`` exits 3 naming ``key``, both under --validate and on a run,
    without assembling a model or writing an output directory."""

    def refuse(spec):
        raise AssertionError("assembled a model past the guard")

    monkeypatch.setattr(nelson, "assemble_free", refuse)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    base = ("--experiment", experiment, "--config", str(cfg))
    out = tmp_path / "run"
    for extra in (("--validate",), ("--out", str(out))):
        assert run_cli(*base, *extra) == 3
        assert key in capsys.readouterr().err
    assert not out.exists()


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "config",
    [
        *sorted((ROOT / "configs").glob("*.cfg")),
        *sorted((ROOT / "perfbench" / "workloads").glob("*.cfg")),
    ],
    ids=lambda path: path.name,
)
def test_shipped_configs_validate(config):
    assert run_cli("--validate", "--config", str(config)) == 0


def _drawn(values):
    return st.one_of(st.none(), st.sampled_from(values))


_FLOATS = ["-1", "0", "-0.0", "nan", "inf", "-inf", "1e-300", "0.3", "0.99", "1", "2.5", "1e300"]
_MODEL_VALUES = {
    "npts": _drawn(["-8", "0", "1", "2", "8", "12", "16", "8192", "2.5", "nan"]),
    "box": st.one_of(_drawn(_FLOATS), st.floats().map(repr)),
    "g_modulation": _drawn(_FLOATS),
    "w_amplitude": _drawn(_FLOATS),
    "mass": st.one_of(_drawn(_FLOATS), st.floats().map(repr)),
    "coupling": _drawn(_FLOATS),
    "sigma": st.one_of(_drawn(_FLOATS), st.floats().map(repr)),
    "n_max": _drawn(["-1", "0", "1", "2", "3", "40"]),
}


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("property") / "c.cfg"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.fixed_dictionaries(_MODEL_VALUES), experiment=st.sampled_from([None, *EXPERIMENTS]))
@example(values={"sigma": "-1"}, experiment=None)
def test_guards_pass_only_configs_the_library_accepts(config_file, values, experiment):
    text = "[model]\n" + "".join(f"{k} = {v}\n" for k, v in values.items() if v is not None)
    config_file.write_text(text)
    try:
        parse_config_text(text)
        cfg = resolve_config(str(config_file))
        check_guards(cfg, experiment)
    except (ConfigError, GuardError):
        return
    model, sweep = cfg["model"], cfg["sweep"]
    specs = {
        npts: nelson.sinusoidal_spec(
            npts,
            box=model["box"],
            g_modulation=model["g_modulation"],
            w_amplitude=model["w_amplitude"],
            mass=model["mass"],
            coupling=model["coupling"],
            sigma=model["sigma"],
            n_max=model["n_max"],
        )
        for npts in (model["npts"], *sweep["sizes"])
    }
    for lam in sweep["lams"]:
        specs[model["npts"]].grid.check_cutoff(lam)
    for size, lam in zip(sweep["sizes"], sweep["domain_lams"]):
        specs[size].grid.check_cutoff(lam)


def test_unknown_experiment_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["--experiment", "no-such"])
    assert info.value.code == 2


@pytest.mark.parametrize("threads", ["-3", "0", "2"])
def test_threads_other_than_one_exit_two_before_any_run(tmp_path, monkeypatch, threads):
    def forbidden(*args, **kwargs):
        raise AssertionError("read the config")

    monkeypatch.setattr(cli, "resolve_config", forbidden)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as info:
        main(["--experiment", "weyl-identities", "--threads", threads, "--out", str(out)])
    assert info.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["renorm-convergence", "ibc-identity"])
def test_zero_coupling_runs_where_no_norm_ratio_is_taken(tmp_path, experiment):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[model]\ncoupling = 0.0\n[sweep]\nlams = 1.0, 2.0\n")
    assert run_cli("--experiment", experiment, "--config", str(cfg), "--out", str(tmp_path / "run")) == 0


def test_experiment_required_without_list_or_validate(capsys):
    assert main([]) == 2
    assert "--experiment" in capsys.readouterr().err


def test_ibc_identity_run_passes(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("--experiment", "ibc-identity", "--out", str(out)) == 0
    rows = read_rows(out)
    assert all(status == "PASS" for *_, status in rows)
    keystone = [r for r in rows if r[1]["check"] == "keystone-identity"]
    assert len(keystone) == 3
    for _, params, lhs, rhs, _ in keystone:
        assert rhs == 1e-10 and lhs <= rhs
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "PASS"
    assert summary["experiment"] == "ibc-identity"
    assert {c["name"] for c in summary["checks"]} >= {
        "keystone-identity",
        "spectral-equivalence",
        "neumann-closure",
        "neumann-inverse",
    }
    assert (out / "plot.gp").exists()


def test_ibc_identity_forms_no_tensor_matrix():
    cfg = resolve_config(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "dense-tensor.cfg"))
    one_dense = 8 * 1320**2  # one float64 array of side 1320 at n_max 3: 13.9 MB
    tracemalloc.start()
    try:
        rows = run_ibc_identity(cfg, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_dense
    assert rows.telemetry["tensor_dim"] == 1320
    assert all(row.status == "PASS" for row in rows)


@pytest.mark.parametrize(
    "experiment, seed, config",
    [("weyl-identities", 3, ""), ("psido-calculus", 11, ""), ("ibc-identity", 7, "[sweep]\nlams = 1.0, 2.0\n")],
    ids=["weyl-identities", "psido-calculus", "ibc-identity"],
)
def test_results_csv_is_byte_identical_across_runs(tmp_path, experiment, seed, config):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ("--experiment", experiment, "--config", str(cfg), "--seed", str(seed))
    assert run_cli(*args, "--out", str(out_a)) == 0
    assert run_cli(*args, "--out", str(out_b)) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_seed_changes_measured_values(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("--experiment", "psido-calculus", "--seed", "1", "--out", str(out_a)) == 0
    assert run_cli("--experiment", "psido-calculus", "--seed", "2", "--out", str(out_b)) == 0
    assert (out_a / "results.csv").read_bytes() != (out_b / "results.csv").read_bytes()


def test_domain_regularity_reports_honest_failure(tmp_path, capsys):
    # the default top powers 0.4 and 0.5 are both subcritical in d = 1
    # (critical p = 1), so their ratio of last-step excess growth stays
    # below 2, the headline check fails and the run exits 1
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[sweep]\nsizes = 8, 16\ndomain_lams = 2.0, 4.0\n")
    out = tmp_path / "run"
    code = run_cli("--experiment", "domain-regularity", "--config", str(cfg), "--out", str(out))
    assert code == 1
    rows = read_rows(out)
    fails = [r for r in rows if r[4] == "FAIL"]
    assert len(fails) == 1
    assert fails[0][1]["check"] == "growth-separation-min"
    assert fails[0][2] < fails[0][3]
    norm_rows = [r for r in rows if r[1]["check"] == "sobolev-weighted-norm"]
    assert len(norm_rows) == 8 and all(r[4] == "PASS" for r in norm_rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "FAIL"
    assert "growth-separation-min" in capsys.readouterr().out


def test_summary_records_config_hash_and_seed(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("--experiment", "weyl-identities", "--out", str(out_a)) == 0
    assert run_cli("--experiment", "weyl-identities", "--config", "configs/default.cfg", "--out", str(out_b)) == 0
    sum_a = json.loads((out_a / "summary.json").read_text())
    sum_b = json.loads((out_b / "summary.json").read_text())
    assert sum_a["config_hash"] == sum_b["config_hash"]
    assert sum_a["seed"] == 7
    assert sum_a["wall_clock_s"] >= 0.0
    assert sum_a["peak_rss_mib"] > 0.0
    # weyl-identities runs no kernel under the memory guard
    assert sum_a["stated_peak_mib"] is None
    assert set(sum_a["versions"]) == {"numpy", "blas", "blas_version"}
    assert sum_a["versions"]["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert sum_a["versions"]["blas"] == blas["name"]
    assert sum_a["versions"]["blas_version"] == blas["version"]
    for check in sum_a["checks"]:
        assert set(check) == {"name", "parameters", "measured", "bound", "status"}


def test_renorm_summary_records_solver_telemetry(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[sweep]\nlams = 1.0, 2.0\n")
    out = tmp_path / "run"
    assert run_cli("--experiment", "renorm-convergence", "--config", str(cfg), "--out", str(out)) == 0
    telemetry = json.loads((out / "summary.json").read_text())["telemetry"]
    assert telemetry["tensor_dim"] == 8 * 45
    assert telemetry["schur_dim"] == 8 * 9
    levels = telemetry["ground_levels"]
    assert [level["lam"] for level in levels] == [1.0, 2.0]
    for level in levels:
        for side in ("subtracted", "unsubtracted"):
            assert level[side]["newton_evaluations"] > 0
            assert 0.0 <= level[side]["residual"] < 1e-12
    (distance,) = telemetry["resolvent_distances"]
    assert (distance["lam"], distance["lam_next"]) == (1.0, 2.0)
    for side in ("subtracted", "unsubtracted"):
        assert distance[side]["gram_applications"] > 0
        assert 0.0 <= distance[side]["residual"] < 1e-10
    csv = (out / "results.csv").read_text()
    assert "gram" not in csv and "newton" not in csv


def test_gross_summary_records_check_telemetry(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[model]\nn_max = 3\n[sweep]\nlams = 1.0, 4.0\n")
    out = tmp_path / "run"
    assert run_cli("--experiment", "gross-transform", "--config", str(cfg), "--out", str(out)) == 1
    telemetry = json.loads((out / "summary.json").read_text())["telemetry"]
    assert telemetry["tensor_dim"] == 8 * 165
    assert telemetry["safe_dim"] == 8 * 9
    checks = telemetry["transformed"]
    residuals = [r[2] for r in read_rows(out) if r[1]["check"] == "transformed-residual"]
    assert [check["lam"] for check in checks] == [1.0, 4.0]
    for check, residual in zip(checks, residuals):
        assert check["scale"] > 0.0 and check["b_norm_max"] > 0.0
        assert check["residual_abs"] / check["scale"] == pytest.approx(residual, rel=1e-11)
        # sqrt(2 n_max) ||b_X|| <= 1.2: one step of the Weyl-row series
        assert check["weyl_steps"] == 1 and 1 <= check["weyl_terms"] <= 25
    csv = (out / "results.csv").read_text()
    assert "safe_dim" not in csv and "scale" not in csv and "b_norm" not in csv and "weyl" not in csv


def test_ibc_summary_records_assembly_telemetry(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[model]\nn_max = 3\n[sweep]\nlams = 1.0, 4.0\n")
    out = tmp_path / "run"
    assert run_cli("--experiment", "ibc-identity", "--config", str(cfg), "--out", str(out)) == 0
    telemetry = json.loads((out / "summary.json").read_text())["telemetry"]
    assert telemetry["tensor_dim"] == 8 * 165
    # G maps sector n-1 into sector n; a sector side is 8 x C(7 + n, n)
    assert telemetry["g_blocks"] == {"1<-0": [64, 8], "2<-1": [288, 64], "3<-2": [960, 288]}
    # nilpotent G: the series closes after n_max + 1 terms, as the neumann-closure rows say
    assert telemetry["neumann"] == [{"lam": 1.0, "neumann_terms": 4}, {"lam": 4.0, "neumann_terms": 4}]
    assert [r[2] for r in read_rows(out) if r[1]["check"] == "neumann-closure"] == [0.0, 0.0]
    csv = (out / "results.csv").read_text()
    assert "tensor_dim" not in csv and "g_blocks" not in csv and "neumann_terms" not in csv


def test_domain_regularity_summary_records_kernel_telemetry(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[sweep]\nsizes = 8, 16\ndomain_lams = 2.0, 4.0\npowers = 0.0, 1.0\n")
    out = tmp_path / "run"
    assert run_cli("--experiment", "domain-regularity", "--config", str(cfg), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    # the pre-flight's stated peak: the kernel at the widest sizes entry beside both models
    stated = nelson.model_bytes(8, 2) + nelson.model_bytes(16, 2) + ibc.regularity_peak_bytes(16, 2)
    assert summary["stated_peak_mib"] == round(stated / 2**20, 1)
    points = summary["telemetry"]["points"]
    assert [(point["npts"], point["lam"]) for point in points] == [(8, 2.0), (16, 4.0)]
    # step n applies M*M on a side of npts x dim(sector n-1), with at most
    # _BASIS Lanczos vectors: none of these runs restarts
    for point in points:
        npts = point["npts"]
        steps = point["steps"]
        assert [step["side"] for step in steps] == [npts, npts * npts]
        for step in steps:
            side = step["side"]
            assert [record["p"] for record in step["lanczos"]] == [0.0, 1.0]
            for record in step["lanczos"]:
                assert 1 <= record["steps"] <= side and record["restarts"] == 0
                assert 0.0 <= record["residual"] <= 1e-15
            # the basis of the longest run and the apply's workspace, a few
            # arrays of npts x side; nothing of the side squared
            lanczos = max(lanczos_peak_bytes(side, record["steps"], 8) for record in step["lanczos"])
            assert lanczos < step["peak_bytes"] <= lanczos + 8 * npts * (npts + 3 * side + 4 * npts**2)
    csv = (out / "results.csv").read_text()
    assert "side" not in csv and "peak_bytes" not in csv
    assert "lanczos" not in csv and "restarts" not in csv and "residual" not in csv


def test_psido_summary_records_check_telemetry(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[sweep]\npsido_npts = 16\nparametrix_npts = 32\ndraws = 3\n")
    out = tmp_path / "run"
    assert run_cli("--experiment", "psido-calculus", "--config", str(cfg), "--seed", "5", "--out", str(out)) == 0
    telemetry = json.loads((out / "summary.json").read_text())["telemetry"]
    assert telemetry["symbol_side"] == 16 and telemetry["parametrix_side"] == 32
    assert telemetry["draws"] == 3
    worst = telemetry["worst_draw"]
    assert sorted(worst) == sorted(["roundtrip", "composition", "adjoint", "requantization"])
    assert all(0 <= index < 3 for index in worst.values())
    # the recorded draw reproduces its row
    rows = {r[1]["check"]: r for r in read_rows(out)}
    grid = Grid(1, 16, resolve_config(None)["model"]["box"])
    rng = np.random.default_rng(5)
    a = [psido.random_band_limited(grid, rng) for _ in range(3)][worst["roundtrip"]]
    roundtrip = np.max(np.abs(psido.dequantize(grid, psido.quantize(a, 1.0), 1.0).values - a.values))
    assert float(f"{roundtrip:.12g}") == rows["roundtrip"][2]
    resid = telemetry["parametrix_residuals"]
    assert len(resid) == 4
    assert rows["parametrix-gain-min"][2] == pytest.approx(resid[0], rel=1e-11)
    assert rows["parametrix-monotone"][2] == pytest.approx(max(np.diff(resid)), rel=1e-11)
    assert telemetry["identity_norm"] == "frobenius"
    assert sorted(telemetry["stage_s"]) == ["identities", "parametrix"]
    assert all(seconds >= 0.0 for seconds in telemetry["stage_s"].values())
    csv = (out / "results.csv").read_text()
    assert "side" not in csv and "worst" not in csv and "residuals" not in csv
    assert "frobenius" not in csv and "stage" not in csv


def test_psido_identity_rows_bound_the_operator_norm(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[sweep]\npsido_npts = 16\nparametrix_npts = 32\ndraws = 3\n")
    out = tmp_path / "run"
    assert run_cli("--experiment", "psido-calculus", "--config", str(cfg), "--seed", "5", "--out", str(out)) == 0
    worst = json.loads((out / "summary.json").read_text())["telemetry"]["worst_draw"]
    rows = {r[1]["check"]: r[2] for r in read_rows(out)}
    grid = Grid(1, 16, resolve_config(None)["model"]["box"])
    rng = np.random.default_rng(5)
    symbols = [psido.random_band_limited(grid, rng) for _ in range(3)]

    def residual(name, a, b):
        qa = psido.quantize(a, 1.0)
        if name == "composition":
            return psido.quantize(psido.moyal(a, b, 1.0), 1.0) - qa @ psido.quantize(b, 1.0)
        if name == "adjoint":
            return psido.quantize(psido.adjoint_symbol(a, 1.0), 1.0) - qa.conj().T
        return psido.quantize(psido.change_quantization(a, 1.0, 0.5), 0.5) - qa

    for name in ("composition", "adjoint", "requantization"):
        i = worst[name]
        mat = residual(name, symbols[i], symbols[(i + 1) % 3])
        # the row is the Frobenius norm, so a PASS bounds the operator norm too
        assert rows[name] == float(f"{np.linalg.norm(mat):.12g}")
        assert rows[name] >= opnorm(mat)


@pytest.mark.parametrize("draws", [3, 7])
def test_psido_calculus_takes_svds_only_for_the_parametrix(monkeypatch, draws):
    cfg = resolve_config(None)
    cfg["sweep"].update(psido_npts=16, parametrix_npts=32, draws=draws)
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    cli.run_psido_calculus(cfg, 7)
    # one opnorm per parametrix residual, iterations + 1 = 4; none per draw
    assert calls == [(32, 32)] * 4


@pytest.mark.parametrize("draws", [1, 2, 5])
def test_streamed_symbol_pairs_match_the_listed_draws(draws):
    grid = Grid(1, 16, 2 * np.pi)
    rng = np.random.default_rng(3)
    symbols = [psido.random_band_limited(grid, rng) for _ in range(draws)]
    listed = [(symbols[i], symbols[(i + 1) % draws]) for i in range(draws)]
    streamed = list(cli._symbol_pairs(grid, np.random.default_rng(3), draws))
    assert len(streamed) == draws
    for (a, b), (sa, sb) in zip(listed, streamed):
        assert np.array_equal(a.values, sa.values) and np.array_equal(b.values, sb.values)
    # the last pair wraps around to the first draw, kept rather than drawn again
    assert streamed[-1][1] is streamed[0][0]


def test_psido_calculus_peak_does_not_grow_with_draws():
    cfg = resolve_config(None)
    cfg["sweep"].update(psido_npts=64, parametrix_npts=64, draws=1)
    cli.run_psido_calculus(cfg, 7)  # first-use imports and allocations stay out of the peaks
    table = 16 * Grid(1, 64, cfg["model"]["box"]).size ** 2
    peaks = {}
    for draws in (3, 30):
        cfg["sweep"]["draws"] = draws
        # from empty per-grid caches
        for cached in (psido._axis_components, psido._target_index, psido._translation_phase,
                       psido._column_table, psido._chi_mesh, psido._reordering_phase):
            cached.cache_clear()
        tracemalloc.start()
        try:
            rows = cli.run_psido_calculus(cfg, 7)
            peaks[draws] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.telemetry["draws"] == draws
        assert peaks[draws] <= check_guards(cfg, "psido-calculus")
    assert abs(peaks[30] - peaks[3]) <= table


def test_psido_calculus_guard_does_not_scale_with_draws():
    # 2000 listed symbols of side 256 alone were 2 GiB, past the budget
    cfg = resolve_config(None)
    cfg["sweep"].update(psido_npts=256, draws=2000)
    assert check_guards(cfg, "psido-calculus") == psido.calculus_peak_bytes(256, cli._CALCULUS_HELD_SYMBOLS)


def test_fock_conjugation_rows_pass_at_tiny_coupling(tmp_path):
    # the Weyl truncation tolerance underflows to 0 here; the rows keep the roundoff floor
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[model]\ncoupling = 1e-200\n")
    out = tmp_path / "run"
    assert run_cli("--experiment", "gross-transform", "--config", str(cfg), "--out", str(out)) == 0
    fock_rows = [r for r in read_rows(out) if r[1]["check"].startswith("fock-")]
    assert len(fock_rows) == 6
    for _, _, lhs, rhs, status in fock_rows:
        assert status == "PASS" and rhs == 1e-12 and lhs < 1e-20


def test_cli_import_leaves_quadrature_and_sparse_solvers_unloaded():
    code = "import sys, nelsonlab.cli; print(sorted(m for m in ('scipy.integrate', 'scipy.sparse') if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_renorm_run_leaves_scipy_linalg_and_sparse_unloaded():
    # the renorm kernel needs numpy alone; importing scipy.linalg and
    # scipy.sparse.linalg costs the process about 24 MiB of its peak
    config = ROOT / "perfbench" / "workloads" / "dense-tensor.cfg"
    code = (
        "import sys, tempfile; from nelsonlab.cli import main; "
        f"code = main(['--experiment', 'renorm-convergence', '--config', {str(config)!r}, '--out', tempfile.mkdtemp()]); "
        "print(code, sorted(m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


def test_quadrature_runs_load_no_scipy(tmp_path):
    # the radial quadratures run on numpy alone; scipy is only the tests' oracle
    code = (
        "import sys; from nelsonlab.cli import main; "
        f"codes = [main(['--experiment', e, '--out', {str(tmp_path)!r} + '/' + e]) for e in ('appendix-inequalities', 'vacuum-energy')]; "
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0] []"


def test_summary_reads_no_package_metadata(tmp_path):
    # importlib.metadata cost each run about 28 ms and 1.4 MiB of its peak
    code = (
        "import sys; from nelsonlab.cli import main; "
        f"code = main(['--experiment', 'weyl-identities', '--out', {str(tmp_path)!r}]); "
        "print(code, 'importlib.metadata' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "0 False"


def test_one_thread_run_loads_no_thread_pool_or_polynomial_module(tmp_path):
    # concurrent.futures (with logging) and numpy.polynomial cost every process
    # about 10 ms and 1.4 MB at import; the CLI starts no thread pool, and only the
    # quadratures use numpy.polynomial
    code = (
        "import sys; from nelsonlab.cli import main; "
        f"code = main(['--experiment', 'gross-transform', '--out', {str(tmp_path)!r}]); "
        "print(code, [m for m in ('concurrent.futures', 'logging', 'numpy.polynomial') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "0 []"


def test_renorm_reaches_npts_32_within_the_budget():
    # three splits of side 1056 and a Lanczos basis of side 17 952: 187 MiB, not the
    # 1.5 GB of dense A_N and C
    cfg = resolve_config(str(ROOT / "configs" / "renorm-32.cfg"))
    assert check_guards(cfg, "renorm-convergence") == nelson.model_bytes(32, 2) + nelson.renorm_peak_bytes(32, 2) < 256 * 2**20


def test_memory_guard_states_one_build_ibc_at_npts_32():
    # configs/ibc-identity-32.cfg states 810 MiB for build_ibc beside its model, once for its three cutoffs
    config = str(ROOT / "configs" / "ibc-identity-32.cfg")
    assert run_cli("--experiment", "ibc-identity", "--config", config, "--validate") == 0
    cfg = resolve_config(config)
    assert check_guards(cfg, "ibc-identity") == nelson.model_bytes(32, 2) + ibc.ibc_peak_bytes(32, 2)


def test_summary_states_the_kernel_peak(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[sweep]\nlams = 1.0, 2.0\n")
    out = tmp_path / "run"
    assert run_cli("--experiment", "ibc-identity", "--config", str(cfg), "--threads", "1", "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stated_peak_mib"] == round((nelson.model_bytes(8, 2) + ibc.ibc_peak_bytes(8, 2)) / 2**20, 1)
    assert "threads" not in summary


def test_model_bytes_are_the_arrays_an_assembled_model_keeps():
    for npts, n_max in ((4, 1), (8, 2), (16, 3)):
        model = nelson.assemble_free(nelson.sinusoidal_spec(npts, n_max=n_max))
        fields = [getattr(model, field.name) for field in dataclasses.fields(model)]
        arrays = [a for a in fields if isinstance(a, np.ndarray)]
        arrays += [model.basis.occupations, model.spec.g, model.spec.mu, model.spec.w]
        assert sum(a.nbytes for a in arrays) == nelson.model_bytes(npts, n_max)


def test_stated_peak_holds_the_models_beside_the_kernel():
    cfg = resolve_config(None)
    free, resident = nelson.free_peak_bytes(8, 2), nelson.model_bytes(8, 2)
    assert check_guards(cfg, "renorm-convergence") == max(free, resident + nelson.renorm_peak_bytes(8, 2))
    # domain-regularity assembles the model of every sizes entry before its first kernel
    cfg["sweep"].update(sizes=[8, 16], domain_lams=[2.0, 4.0])
    resident = nelson.model_bytes(8, 2) + nelson.model_bytes(16, 2)
    want = [nelson.free_peak_bytes(16, 2), *(resident + ibc.regularity_peak_bytes(npts, 2) for npts in (8, 16))]
    assert check_guards(cfg, "domain-regularity") == max(want)


def test_guards_run_once_per_run(tmp_path, monkeypatch):
    calls = []
    guards = cli.check_guards

    def counting(*args):
        calls.append(args)
        return guards(*args)

    monkeypatch.setattr(cli, "check_guards", counting)
    assert run_cli("--experiment", "ibc-identity", "--out", str(tmp_path / "run")) == 0
    assert len(calls) == 1


def test_weyl_rows_pass_and_shrink(tmp_path):
    out = tmp_path / "run"
    assert run_cli("--experiment", "weyl-identities", "--out", str(out)) == 0
    rows = read_rows(out)
    static = [r for r in rows if r[1]["check"] == "static-dressing"]
    assert [int(r[1]["n_max"]) for r in static] == [10, 20, 40]
    assert static[-1][2] <= 1e-7
    assert all(r[4] == "PASS" for r in rows)


def test_weyl_rows_run_without_eigh(tmp_path, monkeypatch):
    # every Weyl operator of the run is a sum of rows through the creation ladder
    def refuse(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    out = tmp_path / "run"
    assert run_cli("--experiment", "weyl-identities", "--out", str(out)) == 0
    assert all(r[4] == "PASS" for r in read_rows(out))


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nelsonlab.cli", "--list"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines() == list(EXPERIMENTS)


def test_vacuum_energy_run_passes(tmp_path):
    out = tmp_path / "run"
    assert run_cli("--experiment", "vacuum-energy", "--out", str(out)) == 0
    rows = read_rows(out)
    fit = [r for r in rows if r[1]["check"] == "log-divergence-r2-min"]
    assert len(fit) == 1 and fit[0][2] >= 0.99
    slope = float(fit[0][1]["slope"])
    assert slope > 0.0
    mono = [r for r in rows if r[1]["check"] == "divergence-monotone"]
    assert len(mono) == 4
    assert all(np.diff([r[2] for r in mono]) > 0)
