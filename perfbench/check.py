"""Compare a ``results.csv`` against a reference run of the same experiment.

Byte identity is too strict: BLAS thread counts and library versions move
results in their last digits.  Two CSVs match when they have the same rows
with the same check names, parameter keys and statuses, and every number,
parameter values included, agrees within ``ATOL + RTOL * |reference|``.
"""

from __future__ import annotations

import math

ATOL = 1e-12
RTOL = 1e-9
HEADER = "experiment,parameters,lhs,rhs,status"


def parse_csv(text: str) -> list[dict]:
    """Rows of a results.csv as dicts with parsed parameters."""
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("not a nelsonlab results.csv (bad header)")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"line {lineno}: expected 5 fields, got {len(fields)}")
        experiment, params, lhs, rhs, status = fields
        pairs = [item.partition("=") for item in params.split(";")]
        rows.append(
            {
                "experiment": experiment,
                "params": {key: value for key, _, value in pairs},
                "lhs": lhs,
                "rhs": rhs,
                "status": status,
            }
        )
    return rows


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def values_agree(got: str, ref: str) -> bool:
    """Numbers agree within tolerance; anything else must match exactly."""
    a, b = _number(got), _number(ref)
    if a is None or b is None:
        return got == ref
    if math.isnan(b) or math.isinf(b):
        return got == ref
    return abs(a - b) <= ATOL + RTOL * abs(b)


def compare(got_text: str, ref_text: str, *, numbers: bool = True, seed: int | None = None) -> list[str]:
    """Differences between two results.csv texts; empty when they match.

    With ``numbers=False`` the lhs and rhs columns are not compared, which
    is the check for a seed-dependent experiment at a seed other than the
    reference's.  A ``seed`` parameter, when ``seed`` is given, must equal it
    instead of the reference's value.
    """
    try:
        got, ref = parse_csv(got_text), parse_csv(ref_text)
    except ValueError as exc:
        return [str(exc)]
    if len(got) != len(ref):
        return [f"{len(got)} rows, reference has {len(ref)}"]
    problems = []
    for index, (g, r) in enumerate(zip(got, ref), start=1):
        where = f"row {index} ({r['params'].get('check', '?')})"
        if g["experiment"] != r["experiment"] or g["status"] != r["status"]:
            problems.append(f"{where}: {g['experiment']}/{g['status']} != {r['experiment']}/{r['status']}")
        if list(g["params"]) != list(r["params"]):
            problems.append(f"{where}: parameter keys {list(g['params'])} != {list(r['params'])}")
            continue
        for key, ref_value in r["params"].items():
            if key == "seed" and seed is not None:
                ref_value = str(seed)
            if not values_agree(g["params"][key], ref_value):
                problems.append(f"{where}: {key}={g['params'][key]} != {ref_value}")
        if numbers:
            for column in ("lhs", "rhs"):
                if not values_agree(g[column], r[column]):
                    problems.append(f"{where}: {column} {g[column]} != {r[column]}")
    return problems
