import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nelsonlab import cli, nelson
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
    assert "[model]" in out and "[sweep]" in out and "[tolerances]" in out
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
    cfg = resolve_config(None)
    cfg["model"]["npts"] = 32
    with pytest.raises(GuardError, match="dense dimension"):
        check_guards(cfg, "ibc-identity")
    check_guards(cfg, "domain-regularity")
    check_guards(cfg, None)


def test_domain_regularity_gram_guard_refuses_before_assembly(tmp_path, capsys, monkeypatch):
    def refuse(spec):
        raise AssertionError("assembled a model past the guard")

    monkeypatch.setattr(nelson, "assemble_free", refuse)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("[sweep]\nsizes = 8, 16, 32, 128\ndomain_lams = 2, 4, 8, 16\n")
    # 128 x C(128,1) = 16384 is the Gram side of the last sizes entry
    base = ("--experiment", "domain-regularity", "--config", str(cfg))
    out = tmp_path / "run"
    for extra in (("--validate",), ("--out", str(out))):
        assert run_cli(*base, *extra) == 3
        err = capsys.readouterr().err
        assert "sizes" in err and "dense dimension" in err and "16384" in err
    assert not out.exists()
    # other experiments never read sizes
    assert run_cli("--experiment", "weyl-identities", "--config", str(cfg), "--validate") == 0
    # the defaults reach a Gram side of 32 x C(32,1) = 1024
    check_guards(resolve_config(None), "domain-regularity")


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
        ("sweep", "parametrix_npts", "48", "psido-calculus"),
        ("sweep", "psido_npts", "8192", "psido-calculus"),
        ("sweep", "parametrix_npts", "8192", "psido-calculus"),
        ("sweep", "rearr_npts", "100", "appendix-inequalities"),
        ("model", "coupling", "0", "gross-transform"),
        ("model", "coupling", "-0.0", "domain-regularity"),
    ],
)
def test_library_refusals_exit_three_before_assembly(
    tmp_path, capsys, monkeypatch, section, key, value, experiment
):
    def refuse(spec):
        raise AssertionError("assembled a model past the guard")

    monkeypatch.setattr(nelson, "assemble_free", refuse)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    base = ("--experiment", experiment, "--config", str(cfg))
    out = tmp_path / "run"
    for extra in (("--validate",), ("--out", str(out))):
        assert run_cli(*base, *extra) == 3
        assert key in capsys.readouterr().err
    assert not out.exists()


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "config",
    [ROOT / "configs" / "default.cfg", *sorted((ROOT / "perfbench" / "workloads").glob("*.cfg"))],
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


def test_negative_threads_exit_two_before_any_run(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("started a run or a thread pool")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", forbidden)
    monkeypatch.setattr(cli, "resolve_config", forbidden)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as info:
        main(["--experiment", "weyl-identities", "--threads", "-3", "--out", str(out)])
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


def test_ibc_identity_assembles_each_cutoff_once(monkeypatch):
    # build_ibc scatters its A blocks from the ladder; only H_lam builds the dense A
    calls = []
    original = nelson.creation_family

    def counted(model, lam):
        calls.append(lam)
        return original(model, lam)

    monkeypatch.setattr(nelson, "creation_family", counted)
    cfg = resolve_config(None)
    cfg["sweep"]["lams"] = [1.0, 2.0]
    rows = run_ibc_identity(cfg, 7, 1)
    assert all(row.status == "PASS" for row in rows)
    # one A for H_lam per cutoff
    assert calls == [1.0, 2.0]


def test_results_csv_is_byte_identical_across_runs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli("--experiment", "weyl-identities", "--seed", "3", "--out", str(out_a)) == 0
    assert run_cli("--experiment", "weyl-identities", "--seed", "3", "--out", str(out_b)) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_results_csv_independent_of_thread_count(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ("--experiment", "psido-calculus", "--seed", "11")
    assert run_cli(*args, "--threads", "1", "--out", str(out_a)) == 0
    assert run_cli(*args, "--threads", "4", "--out", str(out_b)) == 0
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
    assert set(sum_a["versions"]) == {"numpy", "scipy", "blas", "blas_version"}
    assert sum_a["versions"]["numpy"] == np.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert sum_a["versions"]["blas"] == blas["name"]
    assert sum_a["versions"]["blas_version"] == blas["version"]
    for check in sum_a["checks"]:
        assert set(check) == {"name", "parameters", "measured", "bound", "status"}


def test_weyl_rows_pass_and_shrink(tmp_path):
    out = tmp_path / "run"
    assert run_cli("--experiment", "weyl-identities", "--out", str(out)) == 0
    rows = read_rows(out)
    static = [r for r in rows if r[1]["check"] == "static-dressing"]
    assert [int(r[1]["n_max"]) for r in static] == [10, 20, 40]
    assert static[-1][2] <= 1e-7
    assert all(r[4] == "PASS" for r in rows)


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
