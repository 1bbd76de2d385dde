"""Tests of the benchmark's own checks: each accepts a well-formed output and
rejects a perturbed one.

    python -m pytest bench/test_checks.py -q

The outputs are written here in regen-verify's file formats from the
closed forms, so the tests need no scenario run.
"""

import json
import math
from pathlib import Path

import pytest

import checks
import run
import scenario as sc

ROOT = Path(__file__).resolve().parent.parent
CLEARING = sc.load(ROOT / "configs/clearing_comonotone.json")
JACKSON = sc.load(ROOT / "configs/jackson_tandem.json")
LEVY_SWEEP = sc.load(ROOT / "bench/scenarios/levy_sweep.json")
LEVY_STATIONARY = sc.load(ROOT / "configs/levy_stationary.json")


def write_sweep(out: Path, scen: dict, reps: int, gap: float = 0.001,
                se: float = 0.002) -> None:
    out.mkdir()
    want = sc.hypothesis(scen)
    ids = (["q25", "q50", "q75"] if sc.uses_quantile_bank(scen) else ["exp"])
    lines = ["t,f_tuple_id,gap,se,n"]
    lines += [f"{t:.17g},{f},{gap!r},{se!r},{reps}"
              for t in scen["run"]["t_grid"] for f in ids]
    lines.append("# seed=1, version=0.1.0")
    (out / "gap.csv").write_text("\n".join(lines) + "\n")
    verdict = {"passed": True, "replications": reps,
               "t_grid": scen["run"]["t_grid"],
               "hypothesis": dict(want, witness=None)}
    (out / "verdict.json").write_text(json.dumps(verdict, indent=2))


def write_stationary(out: Path, value: float, se: float = 0.0015) -> None:
    out.mkdir()
    res = {"renewal_reward": value, "rr_se": se, "time_average": value,
           "ta_se": se, "n_cycles": LEVY_STATIONARY["run"]["n_cycles"],
           "passed": True, "z": 0.0}
    (out / "stationary.json").write_text(json.dumps(res, indent=2))


def edit_json(path: Path, fn) -> None:
    obj = json.loads(path.read_text())
    fn(obj)
    path.write_text(json.dumps(obj))


def test_closed_form_hypotheses_match_the_scenarios():
    cases = [(CLEARING, [1.0, 2.0], 1.0, 0.5),
             (JACKSON, [8.0, 8.0], 1.5, 1.0),
             (LEVY_SWEEP, [2.0, 8.0 / 3.0], 1.0, 0.75)]
    for scen, means, ratio, bound in cases:
        assert sc.cycle_means(scen["model"]) == pytest.approx(means)
        h = sc.hypothesis(scen)
        assert h["order"] == [0, 1] and h["passed"]
        assert h["ratios"] == pytest.approx([ratio])
        assert h["bounds"] == pytest.approx([bound])


def test_closed_form_stationary_mean_and_nominal_cycles():
    assert sc.stationary_exp_mean(LEVY_STATIONARY) == pytest.approx(1 / 3)
    # 100k cycles plus a horizon of 100k over a cycle mean of 2
    assert sc.nominal_cycles(LEVY_STATIONARY, "stationary", 0) == 150_000
    # levy_sweep: 1000 reps * (10 + 20 + 40) * (1/2 + 3/8), no prepass
    assert sc.nominal_cycles(LEVY_SWEEP, "verify-independence",
                             1000) == pytest.approx(61_250)
    # clearing: the quantile prepass adds 10k * 1000 * (1 + 1/2)
    assert sc.nominal_cycles(CLEARING, "verify-independence", 100) == (
        pytest.approx(100 * 1110 * 1.5 + 10_000 * 1000 * 1.5))


@pytest.mark.parametrize("scen", [CLEARING, JACKSON, LEVY_SWEEP])
def test_sweep_check_accepts_well_formed_output(tmp_path, scen):
    write_sweep(tmp_path / "o", scen, 2000)
    assert checks.check_sweep(tmp_path / "o", scen, 2000) == []


def test_sweep_check_rejects_flipped_verdict(tmp_path):
    out = tmp_path / "o"
    write_sweep(out, CLEARING, 2000)
    edit_json(out / "verdict.json", lambda v: v.update(passed=False))
    assert checks.check_sweep(out, CLEARING, 2000)


def test_sweep_check_recomputes_the_rule_from_gap_csv(tmp_path):
    out = tmp_path / "o"
    # the verdict says PASS, but 0.05 > max(0.02, 3 * 0.01) at the final t
    write_sweep(out, CLEARING, 2000, gap=0.05, se=0.01)
    problems = checks.check_sweep(out, CLEARING, 2000)
    assert any("final-time rule" in p for p in problems)


def test_sweep_check_rejects_wrong_hypothesis_ratio(tmp_path):
    out = tmp_path / "o"
    write_sweep(out, JACKSON, 2000)
    edit_json(out / "verdict.json",
              lambda v: v["hypothesis"].update(ratios=[1.0]))
    problems = checks.check_sweep(out, JACKSON, 2000)
    assert any("ratios" in p for p in problems)


def test_sweep_check_rejects_wrong_shape(tmp_path):
    out = tmp_path / "o"
    write_sweep(out, CLEARING, 2000)
    assert checks.check_sweep(out, CLEARING, 1000)   # n != replications
    lines = (out / "gap.csv").read_text().splitlines()
    (out / "gap.csv").write_text("\n".join(lines[:-2] + lines[-1:]) + "\n")
    problems = checks.check_sweep(out, CLEARING, 2000)
    assert any("rows" in p for p in problems)


def test_stationary_check_rejects_value_moved_by_five_se(tmp_path):
    exact, se = sc.stationary_exp_mean(LEVY_STATIONARY), 0.0015
    value = exact + se
    write_stationary(tmp_path / "ok", value, se)
    assert checks.check_stationary(tmp_path / "ok", LEVY_STATIONARY) == []
    write_stationary(tmp_path / "moved", value + 5.0 * se, se)
    problems = checks.check_stationary(tmp_path / "moved", LEVY_STATIONARY)
    assert any("SE from the closed form" in p for p in problems)


def test_stationary_check_rejects_failed_run(tmp_path):
    out = tmp_path / "o"
    write_stationary(out, 1 / 3)
    edit_json(out / "stationary.json", lambda r: r.update(passed=False))
    assert checks.check_stationary(out, LEVY_STATIONARY)


def test_digest_check_rejects_a_changed_byte(tmp_path):
    out = tmp_path / "o"
    write_sweep(out, CLEARING, 2000)
    before = checks.output_digest(out)
    assert checks.check_same_digest(checks.output_digest(out), before) == []
    data = bytearray((out / "gap.csv").read_bytes())
    data[30] ^= 1
    (out / "gap.csv").write_bytes(bytes(data))
    assert checks.check_same_digest(checks.output_digest(out), before)


def test_scipy_import_share_counts_only_outermost_scipy_modules():
    # -X importtime prints children before parents, two spaces per level
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        400 |     scipy.stats",
        "import time:        50 |        750 |   regenverify.engine",
        "import time:        10 |         10 | json",
        "ERROR config: unrelated line",
    ])
    assert math.isclose(run.scipy_import_s(stderr), 700e-6)
