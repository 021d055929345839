"""Reproducible experiment runner over the library modules.

A run executes one named experiment against a resolved configuration and
writes three artifacts into the output directory: ``results.csv`` with one
row per measurement (experiment, parameters, lhs, rhs, status),
``summary.json`` with per-check status and bound, seed, config hash,
wall clock, the process's peak resident set size and the library's stated
peak, the numpy version, the BLAS name and version and the run's
telemetry (matrix sides and solver records), and ``plot.gp``.
Identical (config, seed) pairs produce byte-identical CSV files; a sweep
runs its points in order in one process.

Configs are flat ``key = value`` text files with two typed sections,
``[model]`` and ``[sweep]``; ``#`` starts a comment.  The bound each check
compares against is a constant of this module, next to its runner.
Unknown keys, unreadable values, and malformed lines are reported with
their line number and exit code 2; values the library refuses (lattices,
cutoffs, and sizes at which a kernel's stated peak passes the memory budget
``operators.MAX_BYTES``) and the CLI's own sweep policies exit with code 3;
a failed check exits with code 1.  The model is the bench family of
``nelson.sinusoidal_spec`` at its defaults; only its lattice and truncation
are config.

Check naming convention: a check whose name ends in ``-min`` passes when
lhs >= rhs (fit quality, separation factors); every other check passes
when lhs <= rhs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from os import makedirs, path

import numpy as np

from . import fock, ibc, inequalities, nelson, psido
from .grid import Grid
from .operators import check_bytes, opnorm

# experiment -> the kernel it runs on each model (one per [sweep] sizes entry
# for domain-regularity, else at [model] npts) and the kernel's stated peak;
# sweeps run one kernel at a time, beside every model the run assembles
_MODEL_KERNELS = {
    "renorm-convergence": ("renorm_convergence_experiment", nelson.renorm_peak_bytes),
    "gross-transform": ("transformed_hamiltonian_check", nelson.transformed_peak_bytes),
    "ibc-identity": ("build_ibc", ibc.ibc_peak_bytes),
    "domain-regularity": ("domain_regularity_norms", ibc.regularity_peak_bytes),
}


# symbols that psido-calculus holds at once, whatever its draws: the first
# draw and the current pair of ``_symbol_pairs``
_CALCULUS_HELD_SYMBOLS = 3


class ConfigError(ValueError):
    """Malformed configuration: bad line, unknown key, or unreadable value."""


class GuardError(ValueError):
    """A numeric field violates a structural guard."""


# experiment -> the least length of each sweep list (or least value of each
# count) it needs, so that every row it derives from a sweep measures something;
# psido-calculus draws symbols of band psido_npts // 4, which must be at least 1,
# and at parametrix_npts 2 its symbol 1 + 0.3 sin x rounds to 1 at both points
# and inverts exactly, so the parametrix rows pass on nothing
_SWEEP_MINIMA = {
    "weyl-identities": {"weyl_n_max": 2},
    "psido-calculus": {"draws": 1, "psido_npts": 4, "parametrix_npts": 4},
    "renorm-convergence": {"lams": 2},
    "gross-transform": {"lams": 1},
    "ibc-identity": {"lams": 1},
    "domain-regularity": {"sizes": 2, "powers": 2},
}

# experiment -> the sweep lists it compares entry by entry, which must increase
# strictly: renorm-convergence compares consecutive cutoffs, and domain-regularity
# refines along sizes and compares the top power with the next
_INCREASING_SWEEPS = {
    "renorm-convergence": ("lams",),
    "domain-regularity": ("sizes", "powers"),
}


def _floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _ints(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok.strip()]


# (section, key) -> (parser, default as config text)
_SCHEMA: dict[tuple[str, str], tuple] = {
    ("model", "npts"): (int, "8"),
    ("model", "n_max"): (int, "2"),
    ("sweep", "lams"): (_floats, "1.0, 2.0, 4.0"),
    ("sweep", "sizes"): (_ints, "8, 16, 32"),
    ("sweep", "powers"): (_floats, "0.0, 0.2, 0.4, 0.5"),
    ("sweep", "weyl_n_max"): (_ints, "10, 20, 40"),
    ("sweep", "psido_npts"): (int, "32"),
    ("sweep", "parametrix_npts"): (int, "64"),
    ("sweep", "draws"): (int, "20"),
}

_SECTIONS = ("model", "sweep")


def parse_config_text(text: str) -> dict[tuple[str, str], str]:
    """Read raw section/key/value triples, rejecting anything off-schema."""
    entries: dict[tuple[str, str], str] = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key '{key}' in section [{section}]")
        if (section, key) in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' in section [{section}]")
        entries[(section, key)] = value
    return entries


def resolve_config(config_path: str | None) -> dict[str, dict]:
    """Merge a config file over the schema defaults into typed sections."""
    entries: dict[tuple[str, str], str] = {}
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
        entries = parse_config_text(text)
    resolved: dict[str, dict] = {name: {} for name in _SECTIONS}
    for (section, key), (cast, default) in _SCHEMA.items():
        raw = entries.get((section, key), default)
        try:
            resolved[section][key] = cast(raw)
        except ValueError as exc:
            raise ConfigError(f"field [{section}] {key}: unreadable value {raw!r}") from exc
    return resolved


def config_canonical_text(cfg: dict[str, dict]) -> str:
    lines = []
    for section in _SECTIONS:
        lines.append(f"[{section}]")
        for key in sorted(cfg[section]):
            value = cfg[section][key]
            if isinstance(value, list):
                value = ", ".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in value)
            elif isinstance(value, float):
                value = f"{value:.12g}"
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)


def _spec(cfg: dict, npts: int | None = None) -> nelson.ModelSpec:
    """The bench model at ``npts`` (default: the config's), refused as in
    ``assemble_free`` before any allocation."""
    npts = cfg["model"]["npts"] if npts is None else npts
    check_bytes("assemble_free", nelson.free_peak_bytes(npts, cfg["model"]["n_max"]))
    return nelson.sinusoidal_spec(npts, n_max=cfg["model"]["n_max"])


@contextmanager
def _refusal(field: str):
    """Turn a library refusal (ModelSpecError, ResolutionError, SizeError or the
    ValueError of a Grid) into a GuardError that names ``field``."""
    try:
        yield
    except ValueError as exc:
        raise GuardError(f"{field}: {exc}") from exc


def check_guards(cfg: dict[str, dict], experiment: str | None) -> int | None:
    """Refuse a config before any large allocation: the lattices and model specs
    a run would build meet the library's own checks, plus the CLI's sweep policies.
    Returns the largest peak stated for the run, None if it runs no kernel: the
    assembly of one model, or one kernel beside the arrays of every model the run
    holds (``nelson.model_bytes``; domain-regularity assembles all its sizes first)."""
    model = cfg["model"]
    sweep = cfg["sweep"]
    if model["n_max"] < 1:
        raise GuardError(f"sector guard: n_max must be at least 1, got {model['n_max']}")
    # weyl-identities measures on the sectors 0..WEYL_SECTOR_CAP, safe up to n_max - 2
    for n in sweep["weyl_n_max"]:
        if not WEYL_SECTOR_CAP + 2 <= n <= 128:
            raise GuardError(f"sector guard: weyl_n_max entries must lie in [{WEYL_SECTOR_CAP + 2}, 128], got {n}")
    for key, least in _SWEEP_MINIMA.get(experiment, {}).items():
        value = sweep[key]
        if (len(value) if isinstance(value, list) else value) < least:
            raise GuardError(f"[sweep] {key}: {experiment} needs at least {least}, got {value}")
    for key in _INCREASING_SWEEPS.get(experiment, ()):
        values = sweep[key]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise GuardError(f"[sweep] {key}: {experiment} needs them strictly increasing, got {values}")
    stated = []
    for key, held in (("psido_npts", _CALCULUS_HELD_SYMBOLS), ("parametrix_npts", 0)):
        with _refusal(f"[sweep] {key}"):
            size = Grid(1, sweep[key], CALCULUS_BOX).size
            if experiment == "psido-calculus":
                stated.append(check_bytes("symbol calculus", psido.calculus_peak_bytes(size, held)))
    with _refusal("[model]"):
        spec = _spec(cfg)
    for lam in sweep["lams"]:
        with _refusal("[sweep] lams"):
            spec.grid.check_cutoff(lam)
    for size in sweep["sizes"]:
        with _refusal(f"[sweep] sizes entry {size}"):
            _spec(cfg, size)
    if experiment in _MODEL_KERNELS:
        name, peak = _MODEL_KERNELS[experiment]
        points = [("[model] npts, n_max", model["npts"])]
        if experiment == "domain-regularity":
            points = [(f"[sweep] sizes entry {size}", size) for size in sweep["sizes"]]
        resident = sum(nelson.model_bytes(npts, model["n_max"]) for _, npts in points)
        for field, npts in points:
            with _refusal(field):
                kernel = check_bytes(f"{name} and the assembled models", resident + peak(npts, model["n_max"]))
                stated += [nelson.free_peak_bytes(npts, model["n_max"]), kernel]
    return max(stated, default=None)


@dataclass(frozen=True)
class Row:
    check: str
    params: dict
    lhs: float
    rhs: float

    @property
    def status(self) -> str:
        if self.check.endswith("-min"):
            return "PASS" if self.lhs >= self.rhs else "FAIL"
        return "PASS" if self.lhs <= self.rhs else "FAIL"


class Rows(list):
    """A runner's rows plus ``telemetry``: what the run reports about its own
    solvers.  Telemetry goes to summary.json only, never to results.csv."""

    def __init__(self, rows: list[Row], telemetry: dict):
        super().__init__(rows)
        self.telemetry = telemetry


def _fmt(value) -> str:
    if isinstance(value, float) or isinstance(value, np.floating):
        return f"{float(value):.12g}"
    return str(value)


def _params_text(params: dict) -> str:
    return ";".join(f"{k}={_fmt(v)}" for k, v in params.items())


FLOAT_FLOOR = 1e-12  # residuals at roundoff: the -monotone rows, the fock- rows of gross-transform
WEYL_COUPLING = 0.3  # probe amplitude of the conjugation identities
WEYL_RTOL = 1e-7  # conjugation identity residuals
WEYL_SECTOR_CAP = 5  # sector window the residuals are measured on


def run_weyl_identities(cfg, seed) -> list[Row]:
    sweep = cfg["sweep"]
    f = WEYL_COUPLING * np.array([1.0 + 0.5j])
    g = WEYL_COUPLING * np.array([0.6 - 0.8j])
    freqs = np.array([1.4])
    rho = WEYL_COUPLING * np.array([0.8 + 0.3j])
    # the static dressing: V(-omega^{-3/2} rho) takes dGamma(omega) + Phi(omega^{-1/2} rho)
    # to dGamma(omega) - ||omega^{-1} rho||^2 / 2, so the two deviations cancel in their sum
    static = (-(freqs**-1.5) * rho, freqs**-0.5 * rho)

    rows, results = [], []
    for n_max in sweep["weyl_n_max"]:
        basis = fock.fock_basis(1, n_max)
        energies = basis.occupations @ freqs
        window = basis.tensor_rows(1, 0, WEYL_SECTOR_CAP)
        dgamma_dev, field_dev = fock.conjugation_deviations(basis, freqs, energies, g, f, window)
        static_dgamma, static_field = fock.conjugation_deviations(basis, freqs, energies, *static, window)
        res = {
            "field-shift": opnorm(field_dev),
            "dgamma-shift": opnorm(dgamma_dev),
            "static-dressing": opnorm(static_dgamma + static_field),
        }
        results.append(res)
        params = {"n_max": n_max, "coupling": WEYL_COUPLING, "sector_cap": WEYL_SECTOR_CAP}
        for name, value in res.items():
            rows.append(Row(name, params, value, WEYL_RTOL))
    for name in ("field-shift", "dgamma-shift", "static-dressing"):
        series = [res[name] for res in results]
        worst = max(np.diff(series))
        rows.append(
            Row(
                f"{name}-monotone",
                {"n_max_sweep": "|".join(map(str, sweep["weyl_n_max"])), "sector_cap": WEYL_SECTOR_CAP},
                float(worst),
                FLOAT_FLOOR,
            )
        )
    return rows


def _symbol_pairs(grid: Grid, rng: np.random.Generator, draws: int):
    """Yield (symbol i, symbol i + 1 mod ``draws``) for i < ``draws``, drawing each
    symbol from ``rng`` once, in order.  Only the first draw, kept for the last
    pair, and the current pair are held, so at most three symbols exist at once
    whatever ``draws`` is."""
    first = a = psido.random_band_limited(grid, rng)
    for _ in range(1, draws):
        b = psido.random_band_limited(grid, rng)
        yield a, b
        a = b
    yield a, first


SYMBOL_ATOL = 1e-10  # symbol-calculus identity residuals
PARAMETRIX_GAIN = 10.0  # residual reduction the parametrix must reach in 3 iterations
CALCULUS_BOX = 2.0 * np.pi  # box of the symbol and parametrix lattices
PARAMETRIX_MODULATION = 0.3  # amplitude of the parametrix symbol's sinusoidal coefficient


def run_psido_calculus(cfg, seed) -> list[Row]:
    """The draws run one pair at a time, so the run holds three symbols
    whatever ``draws`` is.  The identity rows report the Frobenius norm of
    each residual, an upper bound on its operator norm, so a PASS still
    bounds the operator norm and no draw takes an SVD."""
    sweep = cfg["sweep"]
    grid = Grid(1, sweep["psido_npts"], CALCULUS_BOX)
    rng = np.random.default_rng(seed)

    def residuals(a: psido.Symbol, b: psido.Symbol) -> dict[str, float]:
        qa = psido.quantize(a, 1.0)
        qb = psido.quantize(b, 1.0)
        roundtrip = float(np.max(np.abs(psido.dequantize(grid, qa, 1.0).values - a.values)))
        comp = float(np.linalg.norm(psido.quantize(psido.moyal(a, b, 1.0), 1.0) - qa @ qb))
        adj = float(np.linalg.norm(psido.quantize(psido.adjoint_symbol(a, 1.0), 1.0) - qa.conj().T))
        change = float(np.linalg.norm(psido.quantize(psido.change_quantization(a, 1.0, 0.5), 0.5) - qa))
        return {"roundtrip": roundtrip, "composition": comp, "adjoint": adj, "requantization": change}

    start = time.perf_counter()
    # starmap drops each pair before it draws the next
    results = list(itertools.starmap(residuals, _symbol_pairs(grid, rng, sweep["draws"])))
    params = {"npts": grid.npts, "draws": sweep["draws"], "seed": seed}
    names = ("roundtrip", "composition", "adjoint", "requantization")
    rows = [Row(name, params, max(res[name] for res in results), SYMBOL_ATOL) for name in names]
    stage_s = {"identities": round(time.perf_counter() - start, 3)}
    start = time.perf_counter()
    pgrid = Grid(1, sweep["parametrix_npts"], CALCULUS_BOX)
    x = pgrid.position_mesh()[:, 0]
    k = pgrid.momentum_mesh()[:, 0]
    modulation = 1.0 + PARAMETRIX_MODULATION * np.sin(2.0 * np.pi * x / CALCULUS_BOX)
    sym = psido.Symbol(pgrid, np.outer(modulation, 1.0 + k**2))
    _, resid = psido.parametrix(sym, 2.0, 1.0, iterations=3)
    pparams = {"npts": pgrid.npts, "order": 2, "iterations": 3}
    rows.append(Row("parametrix-gain-min", pparams, resid[0], PARAMETRIX_GAIN * resid[3]))
    rows.append(Row("parametrix-monotone", pparams, float(max(np.diff(resid))), 0.0))
    stage_s["parametrix"] = round(time.perf_counter() - start, 3)
    telemetry = {
        "symbol_side": grid.size,
        "parametrix_side": pgrid.size,
        "draws": len(results),
        # the first draw that attains each row's maximum
        "worst_draw": {name: int(np.argmax([res[name] for res in results])) for name in names},
        "identity_norm": "frobenius",
        "parametrix_residuals": [float(r) for r in resid],
        "stage_s": stage_s,
    }
    return Rows(rows, telemetry)


def run_renorm_convergence(cfg, seed) -> list[Row]:
    sweep = cfg["sweep"]
    model = nelson.assemble_free(_spec(cfg))
    report = nelson.renorm_convergence_experiment(model, sweep["lams"])
    base = {"npts": model.grid.npts, "n_max": model.basis.n_max, "coupling": model.spec.coupling}
    rows = []
    for level in report["levels"]:
        rows.append(
            Row(
                "subtraction-raises-floor",
                dict(base, lam=level["lam"]),
                level["gs_plain"],
                level["gs_subtracted"],
            )
        )
    pairs = report["pairs"]
    for pair in pairs:
        rows.append(
            Row(
                "subtracted-below-unsubtracted",
                dict(base, lam=pair["lam"], lam_next=pair["lam_next"]),
                pair["d_subtracted"],
                pair["d_unsubtracted"],
            )
        )
    for prev, nxt in zip(pairs[:-1], pairs[1:]):
        rows.append(
            Row(
                "cauchy-decreasing",
                dict(base, lam=nxt["lam"], lam_next=nxt["lam_next"]),
                nxt["d_subtracted"],
                prev["d_subtracted"],
            )
        )
    levels = [{"lam": level["lam"], **level["solver"]} for level in report["levels"]]
    distances = [{"lam": pair["lam"], "lam_next": pair["lam_next"], **pair["solver"]} for pair in pairs]
    telemetry = {
        "tensor_dim": report["dim"],
        "schur_dim": report["schur_dim"],
        "ground_levels": levels,
        "resolvent_distances": distances,
        "stage_s": report["stage_s"],
    }
    return Rows(rows, telemetry)


GROSS_RTOL = 0.05  # relative residual of the transformed assembly


def run_gross_transform(cfg, seed) -> list[Row]:
    sweep = cfg["sweep"]
    model = nelson.assemble_free(_spec(cfg))
    base = {"npts": model.grid.npts, "n_max": model.basis.n_max, "coupling": model.spec.coupling}
    rows, checks = [], []
    for lam in sweep["lams"]:
        report = nelson.transformed_hamiltonian_check(model, lam)
        ratio = nelson.gross_bound_ratio(model, lam)
        params = dict(base, lam=lam)
        # the truncation tolerance underflows to 0 for a tiny dressing, where
        # the deviations are pure roundoff
        fock_bound = max(report["fock_tolerance"], FLOAT_FLOOR)
        rows.append(Row("transformed-residual", params, report["residual"], GROSS_RTOL))
        rows.append(Row("fock-dgamma-conjugation", params, report["fock_dgamma_dev"], fock_bound))
        rows.append(Row("fock-field-conjugation", params, report["fock_field_dev"], fock_bound))
        rows.append(Row("dressing-ratio", params, ratio, 1.0))
        keys = ("residual_abs", "scale", "b_norm_max", "weyl_steps", "weyl_terms")
        checks.append({"lam": lam, **{key: report[key] for key in keys}})
    telemetry = {"tensor_dim": model.dim, "safe_dim": report["safe_dim"], "transformed": checks}
    return Rows(rows, telemetry)


IDENTITY_RTOL = 1e-10  # relative residual of the exact IBC identities
SPECTRAL_ATOL = 1e-9  # eigenvalue agreement between assemblies


def run_ibc_identity(cfg, seed) -> list[Row]:
    sweep = cfg["sweep"]
    model = nelson.assemble_free(_spec(cfg))
    base = {"npts": model.grid.npts, "n_max": model.basis.n_max, "coupling": model.spec.coupling}
    rows, neumann = [], []
    for lam in sweep["lams"]:
        ops = ibc.build_ibc(model, lam)
        keystone = ibc.factorization_identity_check(model, ops)
        inverse_resid = ibc.neumann_residual(model, ops)
        params = dict(base, lam=lam, shift=ops.shift)
        rows.append(Row("keystone-identity", params, keystone, IDENTITY_RTOL))
        rows.append(Row("spectral-equivalence", params, ibc.defect_norm(ops), SPECTRAL_ATOL))
        rows.append(Row("neumann-closure", params, ops.neumann_tail, 0.0))
        rows.append(Row("neumann-inverse", params, inverse_resid, IDENTITY_RTOL))
        neumann.append({"lam": lam, "neumann_terms": ops.neumann_terms})
        shapes = {f"{m}<-{n}": list(block.shape) for (m, n), block in sorted(ops.g.items())}
        del ops  # free this cutoff's blocks before the next cutoff builds its own
    # the block shapes of G depend on the model only
    return Rows(rows, {"tensor_dim": model.dim, "g_blocks": shapes, "neumann": neumann})


NORM_CAP = 10.0  # ceiling of the weighted-norm table entries
GROWTH_RATIO_MIN = 2.0  # least ratio of last-step excess growth, top power over the next; never loosened
DOMAIN_CUTOFF_FRACTION = 0.5  # cutoff of each sizes entry, a fraction of the largest momentum its lattice resolves


def run_domain_regularity(cfg, seed) -> list[Row]:
    sweep = cfg["sweep"]
    models = [nelson.assemble_free(_spec(cfg, size)) for size in sweep["sizes"]]
    lams = [DOMAIN_CUTOFF_FRACTION * model.grid.max_momentum() for model in models]
    report = ibc.domain_regularity_experiment(models, lams, sweep["powers"])
    rows = []
    for entry in report["rows"]:
        rows.append(
            Row(
                "sobolev-weighted-norm",
                {"npts": entry["npts"], "lam": entry["lam"], "p": entry["p"], "shift": entry["shift"]},
                entry["norm"],
                NORM_CAP,
            )
        )
    powers = sweep["powers"]
    for p in powers:
        rows.append(
            Row(
                "growth-total",
                {"p": p, "sizes": "|".join(map(str, sweep["sizes"]))},
                report["growth"][p]["total"],
                NORM_CAP,
            )
        )
    # excess growth over the last refinement step: factors of a slowly
    # divergent quantity cluster near 1, so compare their excesses
    top, ref = powers[-1], powers[-2]
    excess_top = report["growth"][top]["factors"][-1] - 1.0
    excess_ref = report["growth"][ref]["factors"][-1] - 1.0
    rows.append(
        Row(
            "growth-separation-min",
            {"p": top, "p_ref": ref, "sizes": "|".join(map(str, sweep["sizes"]))},
            float(excess_top / excess_ref),
            GROWTH_RATIO_MIN,
        )
    )
    return Rows(rows, {"points": report["points"]})


REARR_BOX = 32.0  # box of the rearrangement lattice
REARR_NPTS = 128  # lattice points of the rearrangement lattice
FUZZ_PAIRS = 1000  # random pairs for the rearrangement inequality
FUZZ_SAMPLES = 100000  # random samples for the weight inequality
OMEGAS = (1.0, 2.0, 4.0, 8.0)  # mass parameters of the scaling checks
XIS = (4.0, 8.0, 16.0, 32.0, 64.0)  # frequency offsets of the decay fit
HL_SLACK = 1e-12  # roundoff slack of the rearrangement inequality
SCALING_EPS = 0.05  # exponent slack of the scaling predictions
SCALING_BAND = 0.15  # relative band around the predicted omega-scaling ratios
SLOPE_MARGIN = 0.1  # slack between fitted and predicted decay slopes


def run_appendix_inequalities(cfg, seed) -> list[Row]:
    rows = []
    grid = Grid(1, REARR_NPTS, REARR_BOX)
    rng = np.random.default_rng(seed)

    violations = 0
    for _ in range(FUZZ_PAIRS):
        f = rng.random(grid.size).astype(complex)
        g = rng.random(grid.size).astype(complex)
        lhs, rhs = inequalities.hardy_littlewood_check(grid, f, g)
        violations += lhs > rhs + HL_SLACK
    rows.append(
        Row("hardy-littlewood-fuzz", {"pairs": FUZZ_PAIRS, "npts": grid.npts, "seed": seed}, float(violations), 0.0)
    )

    samples = rng.normal(scale=4.0, size=(FUZZ_SAMPLES, 2, 3))
    ts = (-4.0, -1.5, 0.5, 4.0)
    for t, count in zip(ts, inequalities.peetre_check(ts, samples)):
        rows.append(
            Row("peetre-fuzz", {"t": t, "samples": FUZZ_SAMPLES, "seed": seed}, float(count), 0.0)
        )

    half = 0.5 * grid.box
    signed = np.mod(grid.axis_positions() + half, grid.box) - half
    absx = np.abs(signed)
    f_cut = np.where(absx > 1.0, np.maximum(absx, 1.0) ** -1.5, 0.0)
    profile = inequalities.rearrange(inequalities.lattice_profile(grid, f_cut))
    radii = np.sort(absx, kind="stable")
    closed = (radii + 1.0) ** -1.5
    h = grid.spacing
    local = np.maximum(
        np.abs((radii + h + 1.0) ** -1.5 - closed),
        np.abs((np.maximum(radii - h, 0.0) + 1.0) ** -1.5 - closed),
    )
    mask = radii + 1.0 <= half - h
    bad = int(np.sum(np.abs(profile.values - closed)[mask] > 2.0 * local[mask] + 1e-12))
    rows.append(
        Row("rearrangement-closed-form", {"npts": grid.npts, "masked": int(mask.sum()), "p": 1.5, "lam": 1.0}, float(bad), 0.0)
    )

    eps = SCALING_EPS
    for xi in (0.0, 1.0):
        values = [
            inequalities.integral_estimate_check(0.0, 0.0, 4.0, 1.0, 0.0, omega, xi, eps)
            for omega in OMEGAS
        ]
        predicted = 2.0 ** (-4.0 + 3.0 + eps)
        for omega, (integral, bound) in zip(OMEGAS, values):
            rows.append(
                Row("estimate-dominated", {"omega": omega, "xi": xi, "eps": eps}, integral, bound + 1e-12)
            )
        for (om_a, (val_a, _)), (om_b, (val_b, _)) in zip(
            zip(OMEGAS[:-1], values[:-1]), zip(OMEGAS[1:], values[1:])
        ):
            deviation = abs(val_b / val_a / predicted - 1.0)
            rows.append(
                Row(
                    "omega-scaling",
                    {"omega": om_a, "omega_next": om_b, "xi": xi, "eps": eps},
                    float(deviation),
                    SCALING_BAND,
                )
            )

    cut_lams = [1.0, 4.0, 16.0, 64.0]
    cut_values = [
        inequalities.integral_estimate_check(0.0, 0.0, 4.0, 1.0, lam, 1.0, 1.0, eps) for lam in cut_lams
    ]
    for lam, (integral, bound) in zip(cut_lams, cut_values):
        rows.append(Row("cutoff-estimate-dominated", {"lam": lam, "eps": eps}, integral, bound + 1e-12))
    prefactors = [integral for integral, _ in cut_values]
    worst = max(b / a for a, b in zip(prefactors[:-1], prefactors[1:]))
    rows.append(Row("cutoff-prefactor-decreasing", {"lams": "|".join(map(_fmt, cut_lams))}, float(worst), 1.0))

    decay = inequalities.offset_decay_check(2.0, XIS, 0.0, eps=eps)
    rows.append(
        Row(
            "offset-decay-slope",
            {"nu": 2.0, "eps": eps, "xis": "|".join(map(_fmt, XIS))},
            decay["slope"],
            decay["decay_exponent"] + SLOPE_MARGIN,
        )
    )
    return rows


FIT_R2 = 0.99  # least R^2 of the logarithmic fits
VARIATION_MAX = 0.10  # spread allowed in the subtracted diagonal sweep
QUAD_LAMS = (4.0, 8.0, 16.0, 32.0, 64.0)  # cutoffs of the quadrature sweeps


def run_vacuum_energy(cfg, seed) -> list[Row]:
    lams = QUAD_LAMS
    values = inequalities.vacuum_energy_quadrature(lams, 3)
    slope, r_squared = inequalities.log_fit(lams, values)
    rows = []
    for lam_a, lam_b, val_a, val_b in zip(lams[:-1], lams[1:], values[:-1], values[1:]):
        rows.append(Row("divergence-monotone", {"lam": lam_a, "lam_next": lam_b, "d": 3}, val_a, val_b))
    rows.append(
        Row("log-divergence-r2-min", {"lams": "|".join(map(_fmt, lams)), "d": 3, "slope": slope}, r_squared, FIT_R2)
    )
    demo = inequalities.diagonal_divergence_demo(lams)
    demo_params = {"g_const": demo["g_const"], "lams": "|".join(map(_fmt, lams))}
    rows.append(Row("demo-unsubtracted-r2-min", demo_params, demo["log_r_squared"], FIT_R2))
    rows.append(Row("demo-subtracted-variation", demo_params, demo["variation"], VARIATION_MAX))
    return rows


_RUNNERS = {
    "weyl-identities": run_weyl_identities,
    "psido-calculus": run_psido_calculus,
    "renorm-convergence": run_renorm_convergence,
    "gross-transform": run_gross_transform,
    "ibc-identity": run_ibc_identity,
    "domain-regularity": run_domain_regularity,
    "appendix-inequalities": run_appendix_inequalities,
    "vacuum-energy": run_vacuum_energy,
}

EXPERIMENTS = tuple(_RUNNERS)


def render_csv(experiment: str, rows: list[Row]) -> str:
    lines = ["experiment,parameters,lhs,rhs,status"]
    for row in rows:
        params = _params_text(dict({"check": row.check}, **row.params))
        lines.append(f"{experiment},{params},{_fmt(row.lhs)},{_fmt(row.rhs)},{row.status}")
    return "\n".join(lines) + "\n"


def render_plot(experiment: str) -> str:
    return "\n".join(
        [
            "# gnuplot script over results.csv (run from the same directory)",
            "set datafile separator ','",
            "set key outside",
            "set logscale y",
            f"set title '{experiment}'",
            "set xlabel 'measurement row'",
            "set ylabel 'lhs vs rhs'",
            "plot 'results.csv' every ::1 using 0:3 with linespoints title 'lhs', \\",
            "     'results.csv' every ::1 using 0:4 with linespoints title 'rhs'",
            "",
        ]
    )


def render_summary(experiment, rows, cfg, seed, stated_peak, wall_clock) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    payload = {
        "experiment": experiment,
        "seed": seed,
        "config_hash": hashlib.sha256(config_canonical_text(cfg).encode("utf-8")).hexdigest()[:16],
        "status": "PASS" if all(r.status == "PASS" for r in rows) else "FAIL",
        "wall_clock_s": round(wall_clock, 3),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "stated_peak_mib": None if stated_peak is None else round(stated_peak / 2**20, 1),
        "versions": {
            "numpy": np.__version__,
            "blas": blas.get("name"),
            "blas_version": blas.get("version"),
        },
        "telemetry": getattr(rows, "telemetry", {}),
        "checks": [
            {
                "name": row.check,
                "parameters": _params_text(row.params),
                "measured": float(f"{row.lhs:.12g}"),
                "bound": float(f"{row.rhs:.12g}"),
                "status": row.status,
            }
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def write_outputs(out_dir, experiment, rows, cfg, seed, stated_peak, wall_clock) -> None:
    makedirs(out_dir, exist_ok=True)
    with open(path.join(out_dir, "results.csv"), "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_csv(experiment, rows))
    with open(path.join(out_dir, "summary.json"), "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_summary(experiment, rows, cfg, seed, stated_peak, wall_clock))
    with open(path.join(out_dir, "plot.gp"), "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_plot(experiment))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nelsonlab",
        description="Run one reproducible experiment and write results.csv, summary.json, plot.gp.",
    )
    parser.add_argument("--experiment", choices=EXPERIMENTS, help="experiment to run")
    parser.add_argument("--config", help="config file ([model]/[sweep] key = value text)")
    parser.add_argument("--seed", type=int, default=7, help="seed for random draws (default 7)")
    parser.add_argument(
        "--threads",
        type=int,
        choices=(1,),
        default=1,
        help="accepted only as 1, because the benchmark harness passes it; a sweep runs its points in order",
    )
    parser.add_argument("--out", default="results", help="output directory (default: results)")
    parser.add_argument("--list", action="store_true", help="print the experiment names and exit")
    parser.add_argument("--validate", action="store_true", help="check config and guards without running")
    args = parser.parse_args(argv)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0

    try:
        cfg = resolve_config(args.config)
        stated_peak = check_guards(cfg, args.experiment)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard violation: {exc}", file=sys.stderr)
        return 3

    if args.validate:
        print(config_canonical_text(cfg), end="")
        return 0

    if args.experiment is None:
        print("config error: --experiment is required unless --list or --validate is given", file=sys.stderr)
        return 2

    start = time.perf_counter()
    rows = _RUNNERS[args.experiment](cfg, args.seed)
    wall_clock = time.perf_counter() - start
    write_outputs(args.out, args.experiment, rows, cfg, args.seed, stated_peak, wall_clock)
    failed = [row for row in rows if row.status != "PASS"]
    print(f"{args.experiment}: {len(rows) - len(failed)}/{len(rows)} checks pass ({wall_clock:.1f}s)")
    for row in failed:
        print(f"FAIL {row.check} [{_params_text(row.params)}] lhs={_fmt(row.lhs)} rhs={_fmt(row.rhs)}")
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
