#!/usr/bin/env python3
"""Benchmark of regen-verify scenario runs, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/regenverify`` and
``configs/``). One operation is one scenario run of the ``regen-verify``
CLI in a fresh interpreter (bench/child.py), with one worker thread and
BLAS pools pinned to one thread. Operations repeat, one at a time, for about
``--seconds``; each is checked against closed forms and against
the byte-identity promise. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics (medians over the
operations); with ``--trace 1`` the operations alternate between an
untraced run and a traced one, and the metrics are the per-layer ones.
Everything the benchmark writes goes under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402
import scenario as sc  # noqa: E402

OUT = ROOT / ".bench_out"
# workload -> (subcommand, scenario file, replications or None for the file's)
WORKLOADS = {
    "clearing_sweep": ("verify-independence",
                       "configs/clearing_comonotone.json", 10_000),
    "jackson_sweep": ("verify-independence", "configs/jackson_tandem.json",
                      2_000),
    "levy_sweep": ("verify-independence", "bench/scenarios/levy_sweep.json",
                   None),
    "levy_stationary": ("stationary", "configs/levy_stationary.json", None),
}
RUN_LIMIT_S = 170.0       # a hung operation is killed so the run still ends
THREAD_ENV = ("REGEN_VERIFY_THREADS", "OMP_NUM_THREADS",
              "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")
# spans reported by name; cli.main is reported as cli.self_s and trace.wall_s
SPAN_NAMES = tuple(name for name, _, _ in child.SPANS
                   if name != "cli.main") + ("engine.cycle_generator",)
GRID_POINTS = 3


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = str(ROOT / "src")
    # bytecode is cached as an installed package would have it, but under
    # .bench_out so the source tree stays clean
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


class Run:
    """One benchmark run: operations of one workload at one seed."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.command, rel, self.reps = WORKLOADS[workload]
        self.config = ROOT / rel
        self.scenario = sc.load(self.config)
        if self.reps is None:
            self.reps = int(self.scenario["run"].get("replications", 10_000))
        self.work = work
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.count = 0

    def start(self, mode: str) -> dict:
        """Start bench/child.py and return its report plus setup_s, the time
        from the start of the process until regenverify.cli was ready."""
        self.count += 1
        tag = f"{mode}{self.count}"
        result = self.work / f"{tag}.json"
        out = self.work / tag
        cmd = [sys.executable]
        if mode == "traced":
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "child.py"), str(result), mode, "--",
                self.command, "--config", str(self.config),
                "--seed", str(self.seed), "--out", str(out)]
        if self.command == "verify-independence":
            cmd += ["--reps", str(self.reps)]
        with open(self.work / f"{tag}.stdout", "w") as so, \
                open(self.work / f"{tag}.stderr", "w") as se:
            t_spawn = time.monotonic()
            try:
                proc = subprocess.run(
                    cmd, cwd=ROOT, env=self.env, stdout=so, stderr=se,
                    timeout=max(1.0, self.deadline - t_spawn))
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = None
        stderr = (self.work / f"{tag}.stderr").read_text()
        try:
            rep = json.loads(result.read_text())
        except (OSError, ValueError):
            rep = {}
        rep["problems"] = []
        if code != 0 or not rep:
            # a run that did not finish wrote nothing that can be checked
            rep["exit"] = f"{mode} run exited {code}: {stderr[-300:]}"
            rep["ok"] = False
            return rep
        rep["setup_s"] = rep["ready"] - t_spawn
        if mode == "traced":
            rep["import_scipy_s"] = scipy_import_s(stderr)
        rep["problems"] = self.check(out)
        shutil.rmtree(out, ignore_errors=True)
        rep["ok"] = not rep["problems"]
        return rep

    def check(self, out: Path) -> list[str]:
        if not out.is_dir():
            return ["no output directory"]
        if self.command == "stationary":
            problems = checks.check_stationary(out, self.scenario)
        else:
            problems = checks.check_sweep(out, self.scenario, self.reps)
        digest = checks.output_digest(out)
        problems += checks.check_same_digest(digest, self.reference(digest))
        return problems

    def reference(self, digest: str) -> str | None:
        """Digest of the first run of this workload and seed on this source
        tree, kept in .bench_out/digests.json across runs."""
        store = OUT / "digests.json"
        try:
            known = json.loads(store.read_text())
        except (OSError, ValueError):
            known = {}
        key = f"{self.workload}/{self.seed}/{source_fingerprint()}"
        if key not in known:
            known[key] = digest
            tmp = store.with_suffix(".tmp")
            tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
            os.replace(tmp, store)
            return None
        return known[key]


def source_fingerprint() -> str:
    h = hashlib.sha256()
    files = sorted([*(ROOT / "src").rglob("*.py"),
                    *(ROOT / "configs").glob("*.json"),
                    *(HERE / "scenarios").glob("*.json")])
    for path in files:
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def scipy_import_s(stderr: str) -> float:
    """Cumulative import time of the outermost scipy modules, from the
    ``-X importtime`` report (children are printed before their parents,
    indented two spaces per level)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, int(cumulative), name.strip()))
    total_us = 0
    ancestors: list[str] = []
    for depth, cumulative, name in reversed(entries):
        del ancestors[depth:]
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in ancestors):
            total_us += cumulative
        ancestors.append(name)
    return total_us / 1e6


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end(run: Run, ops: list[dict]) -> dict:
    good = [op for op in ops if op["ok"]] or ops
    wall = median(op.get("wall_s", 0.0) for op in good)
    nominal = sc.nominal_cycles(run.scenario, run.command, run.reps)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (median(op["setup_s"] for op in good
                           if "setup_s" in op), "s"),
        "cycles_per_s": (nominal / wall if wall > 0.0 else 0.0, "1/s"),
        "peak_rss_mb": (median(op.get("peak_rss_mb", 0.0) for op in good),
                        "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    traces = [op["trace"] for op in traced if "trace" in op]

    def med(fn) -> float:
        return median(fn(t) for t in traces)

    def span(t: dict, name: str, field: int) -> float:
        return float(t["spans"].get(name, [0, 0.0, 0.0, 0.0])[field])

    m = {
        "setup.import_s": (median(op["import_s"] for op in plain
                                  if "import_s" in op), "s"),
        "setup.import_scipy_s": (median(op.get("import_scipy_s", 0.0)
                                        for op in traced), "s"),
    }
    for name in SPAN_NAMES:
        m[f"{name}_s"] = (med(lambda t: span(t, name, 1)), "s")
        m[f"{name}.self_s"] = (med(lambda t: span(t, name, 2)), "s")
        m[f"{name}.calls"] = (med(lambda t: span(t, name, 0)), "count")
    for name in child.RSS_SPANS:
        m[f"{name}.peak_rss_mb"] = (med(lambda t: span(t, name, 3)), "MB")
    for k in range(GRID_POINTS):
        m[f"engine.sample_states.k{k}_s"] = (
            med(lambda t: float(t["grid_s"].get(str(k), 0.0))), "s")
    m["engine.path_integral.calls"] = (
        med(lambda t: t["path_integral_calls"]), "count")
    m["randomness.cycle_vectors_drawn"] = (
        med(lambda t: t["rows_drawn"]), "count")
    m["models.straddle.useful_ratio"] = (
        med(lambda t: t["states_nominal"] / t["states_rows"]
            if t["states_rows"] else 0.0), "ratio")
    m["cli.self_s"] = (med(lambda t: span(t, "cli.main", 2)), "s")
    traced_wall = med(lambda t: span(t, "cli.main", 1))
    m["trace.wall_s"] = (traced_wall, "s")
    # self times of all spans add up to the traced wall time, the
    # remainder being the instants between the wrappers' clock readings
    m["trace.self_sum_s"] = (
        med(lambda t: sum(v[2] for v in t["spans"].values())), "s")
    m["trace.overhead_s"] = (
        traced_wall - median(op.get("wall_s", 0.0) for op in plain
                             if op["ok"]), "s")
    return m


def machine(env: dict) -> dict:
    """Core count, load average and the thread settings the runs get."""
    return {"cores": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "threads_env": {name: env.get(name) for name in THREAD_ENV}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    missing = [p for p in ("src/regenverify/cli.py",
                           WORKLOADS[args.workload][1])
               if not (ROOT / p).is_file()]
    if missing:
        print(f"bench: not a regenverify checkout, missing "
              f"{', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, work)
    conditions = {"start": machine(run.env)}
    plain: list[dict] = []
    traced: list[dict] = []
    t_end = time.monotonic() + args.seconds
    while True:
        t0 = time.monotonic()
        plain.append(run.start("plain"))
        if args.trace:
            traced.append(run.start("traced"))
        # whole rounds only: start another one if it would end less than
        # half a round past the deadline, so runs last about --seconds
        now = time.monotonic()
        if now + (now - t0) / 2.0 >= t_end:
            break
    conditions["end"] = machine(run.env)
    conditions["versions"] = next(
        (r["versions"] for r in plain if "versions" in r), {})

    ops = plain + traced
    failed = sum(not op["ok"] for op in ops)
    problems = sorted({p for op in ops for p in op["problems"]})
    exits = sorted({op["exit"] for op in ops if "exit" in op})
    metrics = (per_layer(plain, traced) if args.trace
               else end_to_end(run, plain))
    result = {"correct": not problems, "attempted": len(ops),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  conditions=conditions, problems=problems, exits=exits,
                  samples={k: [op.get(k) for op in plain]
                           for k in ("setup_s", "wall_s", "peak_rss_mb")})
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    for p in exits + problems:
        print(f"problem: {p}")
    print(json.dumps({"conditions": conditions}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
