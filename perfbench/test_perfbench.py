"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import check
import tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference"


def _with_row(text: str, check_name: str, edit) -> str:
    """Apply ``edit`` to the fields of the first row whose check is ``check_name``."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        fields = line.split(",")
        if f"check={check_name};" in fields[1] + ";":
            lines[index] = ",".join(edit(fields))
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no row for {check_name}")


def _reference(name: str) -> str:
    return (REFERENCE / "dense-tensor" / f"{name}.csv").read_text(encoding="utf-8")


def test_accepts_blas_thread_roundoff():
    # measured between 1 and 2 OpenBLAS threads: a roundoff-sized residual
    # moves from 8.70e-14 to 1.14e-13, an energy in its 12th digit
    ibc_ref = _with_row(_reference("ibc-identity"), "spectral-equivalence", lambda f: f[:2] + ["8.70e-14"] + f[3:])
    ibc_got = _with_row(ibc_ref, "spectral-equivalence", lambda f: f[:2] + ["1.14e-13"] + f[3:])
    assert check.compare(ibc_got, ibc_ref) == []
    renorm_ref = _reference("renorm-convergence")
    renorm_got = _with_row(
        renorm_ref, "subtraction-raises-floor", lambda f: f[:2] + [repr(float(f[2]) * (1 + 3e-12))] + f[3:]
    )
    assert renorm_got != renorm_ref
    assert check.compare(renorm_got, renorm_ref) == []


def test_rejects_flipped_status():
    ref = _reference("gross-transform")
    flipped = _with_row(ref, "transformed-residual", lambda f: f[:4] + ["PASS" if f[4] == "FAIL" else "FAIL"])
    assert check.compare(flipped, ref)
    assert check.compare(flipped, ref, numbers=False)


def test_rejects_relative_change_of_1e_6():
    ref = _reference("renorm-convergence")
    moved = _with_row(ref, "subtracted-below-unsubtracted", lambda f: f[:2] + [repr(float(f[2]) * (1 + 1e-6))] + f[3:])
    assert check.compare(moved, ref)
    assert check.compare(moved, ref, numbers=False) == []


def test_seed_parameter_follows_the_run():
    ref = (REFERENCE / "calculus" / "psido-calculus.csv").read_text(encoding="utf-8")
    reseeded = ref.replace("seed=7", "seed=11")
    assert check.compare(reseeded, ref, numbers=False, seed=11) == []
    assert check.compare(reseeded, ref, numbers=False, seed=7)


@pytest.fixture
def nelsonlab_cli(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    from nelsonlab import cli

    return cli


def test_tracer_self_times_add_up_to_traced_wall(nelsonlab_cli, tmp_path):
    cli = nelsonlab_cli
    config = tmp_path / "small.cfg"
    config.write_text("[sweep]\nlams = 1.0, 2.0\n", encoding="utf-8")

    def bindings():
        # a cli._RUNNERS entry, two names bound by `from .x import f`, a module attribute
        return cli._RUNNERS["ibc-identity"], cli.ibc.form_factor, cli.nelson.dequantize, cli.fock.annihilate

    spans = tracer.Tracer()
    originals = bindings()
    spans.install()
    try:
        assert all(hasattr(fn, "__wrapped__") for fn in bindings())
        main = spans.wrap("cli.main", cli.main)
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            for experiment in ("ibc-identity", "vacuum-energy"):
                argv = ["--experiment", experiment, "--config", str(config), "--threads", "1"]
                assert main(argv + ["--out", str(tmp_path / experiment)]) == 0
        wall = time.perf_counter() - start
    finally:
        spans.uninstall()
    assert bindings() == originals
    layers = tracer.layer_totals(tracer.summarize(spans.spans))
    assert set(layers) == set(tracer.LAYERS)
    assert layers["ibc"][1] > 0 and layers["fock"][1] > 0
    total = sum(self_s for self_s, _ in layers.values())
    assert total == pytest.approx(wall, rel=1e-3, abs=1e-3)
    assert layers["cli"][0] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "calculus", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
