"""Checks of what one regen-verify run wrote, made against closed forms and
the method's own rules rather than a stored copy of earlier output.

Each check returns a list of problems; an empty list means the output is
right.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import scenario as sc

Z_LIMIT = 3.0            # regen-verify's final-time rule, gap <= max(floor, 3 SE)
STATIONARY_Z = 4.5       # how many SEs a stationary route may sit from its closed form
REL_TOL = 1e-9


def _close(a, b) -> bool:
    return (isinstance(a, (int, float)) and math.isfinite(a)
            and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL))


def read_gap_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return [{"t": float(r["t"]), "f": r["f_tuple_id"], "gap": float(r["gap"]),
             "se": float(r["se"]), "n": float(r["n"])}
            for r in csv.DictReader(lines)]


def check_sweep(out: Path, scen: dict, replications: int) -> list[str]:
    """Output of ``verify-independence`` on a schedule that separates the
    coordinates: the hypothesis block equals the closed form, the verdict is
    PASS and follows from gap.csv by the final-time rule, and gap.csv has
    one row per grid time and tuple with n equal to the replications."""
    try:
        verdict = json.loads((out / "verdict.json").read_text("utf-8"))
        rows = read_gap_csv(out / "gap.csv")
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    want = sc.hypothesis(scen)
    got = verdict.get("hypothesis", {})
    if got.get("order") != want["order"]:
        problems.append(f"hypothesis order {got.get('order')} != "
                        f"{want['order']}")
    for key in ("ratios", "bounds"):
        vals = got.get(key, [])
        if (len(vals) != len(want[key])
                or not all(_close(a, b) for a, b in zip(vals, want[key]))):
            problems.append(f"hypothesis {key} {vals} != {want[key]}")
    for key in ("passed", "diverges"):
        if got.get(key) is not want[key]:
            problems.append(f"hypothesis {key} is {got.get(key)}")

    grid = [float(t) for t in scen["run"]["t_grid"]]
    tuples = sc.QUANTILE_LEVELS if sc.uses_quantile_bank(scen) else 1
    if len(rows) != len(grid) * tuples:
        problems.append(f"gap.csv has {len(rows)} rows, expected "
                        f"{len(grid)} grid times x {tuples} tuples")
    if sorted({r["t"] for r in rows}) != grid:
        problems.append("gap.csv grid times differ from the scenario's")
    if any(r["n"] != replications for r in rows):
        problems.append(f"gap.csv n differs from {replications} replications")
    if verdict.get("replications") != replications:
        problems.append("verdict.json replications differ from the run's")

    floor = float(scen["run"].get("gap_floor", sc.DEFAULT_GAP_FLOOR))
    finals = [r for r in rows if r["t"] == grid[-1]]
    rule = bool(finals) and all(
        math.isfinite(r["gap"]) and r["gap"] <= max(floor, Z_LIMIT * r["se"])
        for r in finals)
    if not rule:
        problems.append(f"final-time rule fails on gap.csv at t={grid[-1]:g}")
    if verdict.get("passed") is not True:
        problems.append("verdict.json does not pass")
    return problems


def check_stationary(out: Path, scen: dict) -> list[str]:
    """Output of ``stationary``: both routes lie within STATIONARY_Z of
    their own SEs of the closed-form stationary mean, and the run passed."""
    try:
        res = json.loads((out / "stationary.json").read_text("utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    exact = sc.stationary_exp_mean(scen)
    for value, se in (("renewal_reward", "rr_se"), ("time_average", "ta_se")):
        v, s = res.get(value), res.get(se)
        if not (_close(v, v) and _close(s, s) and s > 0.0):
            problems.append(f"{value} or {se} is not a positive number")
        elif abs(v - exact) > STATIONARY_Z * s:
            problems.append(f"{value} {v:.6f} is {abs(v - exact) / s:.1f} SE "
                            f"from the closed form {exact:.6f}")
    if res.get("n_cycles") != scen["run"]["n_cycles"]:
        problems.append("stationary.json n_cycles differ from the scenario's")
    if res.get("passed") is not True:
        problems.append("stationary.json does not pass")
    return problems


def output_digest(out: Path) -> str:
    """SHA-256 over every file the run wrote, by name and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def check_same_digest(digest: str, reference: str | None) -> list[str]:
    """regen-verify promises byte-identical outputs for a fixed (config,
    seed) pair; ``reference`` is the digest of an earlier run of it."""
    if reference is None or digest == reference:
        return []
    return [f"outputs differ from an earlier run with the same seed "
            f"({digest[:12]} != {reference[:12]})"]
