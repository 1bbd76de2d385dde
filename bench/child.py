"""Run one regen-verify scenario in a fresh interpreter and report its cost.

    python child.py RESULT.json MODE [-- CLI ARGS...]

MODE is ``plain`` (run the scenario) or ``traced`` (run it with every
layer's public functions wrapped in spans). The result file gets the monotonic clock reading at which
``regenverify.cli`` was ready, the import time, the scenario's wall time
and exit code, the process's peak RSS and, when traced, the spans. run.py
starts this script; it is not imported.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import replace

perf = time.perf_counter


def rss_mb() -> float:
    """High-water mark of this process's resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# span name -> (module, public function); each is wrapped wherever a
# regenverify module has bound it, so internal calls are timed too
SPANS = (
    ("cli.main", "cli", "main"),
    ("config.load_scenario", "config", "load_scenario"),
    ("models.build_model", "models", "build_model"),
    ("asymptotics.quantile_indicator_tuples", "asymptotics",
     "quantile_indicator_tuples"),
    ("asymptotics.convergence_sweep", "asymptotics", "convergence_sweep"),
    ("asymptotics.product_form_gap", "asymptotics", "product_form_gap"),
    ("engine.sample_states", "engine", "sample_states"),
    ("engine.renewal_reward_estimate", "engine", "renewal_reward_estimate"),
    ("engine.time_average_estimate", "engine", "time_average_estimate"),
)
# spans whose end also records the process's RSS high-water mark
RSS_SPANS = ("engine.sample_states", "asymptotics.product_form_gap")
# grid index k of convergence_sweep's sample_states(base_key=(101, k))
SWEEP_KEY = 101


class Tracer:
    """Spans kept in memory: per name the call count, inclusive time, self
    time (inclusive minus the spans opened inside it) and peak RSS."""

    def __init__(self):
        self.spans: dict[str, list[float]] = {}
        self.open: list[float] = []        # child time of each open span
        self.grid_s: dict[int, float] = {}
        self.path_integral_calls = 0
        self.rows_drawn = 0                # rows through sample_cycle_vectors
        self.states_rows = 0               # ... inside sample_states
        self.states_nominal = 0.0          # nominal cycles of those calls

    def span(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0, 0.0])
        track_rss = name in RSS_SPANS
        open_ = self.open

        def wrapper(*args, **kwargs):
            open_.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                inner = open_.pop()
                if open_:
                    open_[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - inner
                if track_rss:
                    stats[3] = max(stats[3], rss_mb())

        return wrapper

    def install(self) -> None:
        import regenverify
        from regenverify import engine, models, randomness

        mods = [m for n, m in sys.modules.items()
                if n == "regenverify" or n.startswith("regenverify.")]
        wrappers = {}
        for name, mod, fn_name in SPANS:
            fn = getattr(getattr(regenverify, mod), fn_name)
            wrappers[fn] = self.span(name, fn)

        timed_states = wrappers[engine.sample_states]

        def sample_states(model, times, n, seed, **kwargs):
            rows0 = self.rows_drawn
            t0 = perf()
            out = timed_states(model, times, n, seed, **kwargs)
            key = tuple(kwargs.get("base_key", ()))
            if len(key) == 2 and key[0] == SWEEP_KEY:
                self.grid_s[key[1]] = self.grid_s.get(key[1], 0.0) + perf() - t0
            self.states_rows += self.rows_drawn - rows0
            self.states_nominal += n * max(
                float(t) / mu for t, mu in zip(times, model.cycle_means))
            return out

        timed_build = wrappers[models.build_model]

        def build_model(spec):
            model = timed_build(spec)
            gen = self.span("engine.cycle_generator", model.cycle_generator)
            return replace(model, cycle_generator=gen)

        path_integral = engine.path_integral

        def counted_path_integral(*args, **kwargs):
            self.path_integral_calls += 1
            return path_integral(*args, **kwargs)

        draw = randomness.sample_cycle_vectors

        def counted_draw(dep, marginals, rng, size):
            self.rows_drawn += int(size)
            return draw(dep, marginals, rng, size)

        wrappers[engine.sample_states] = sample_states
        wrappers[models.build_model] = build_model
        wrappers[path_integral] = counted_path_integral
        wrappers[draw] = counted_draw
        by_id = {id(fn): wrapper for fn, wrapper in wrappers.items()}
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id:
                    setattr(mod, attr, by_id[id(value)])

    def report(self) -> dict:
        return {"spans": self.spans, "grid_s": self.grid_s,
                "path_integral_calls": self.path_integral_calls,
                "rows_drawn": self.rows_drawn,
                "states_rows": self.states_rows,
                "states_nominal": self.states_nominal}


def main() -> int:
    result_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:]
    t0 = perf()
    import regenverify.cli
    report = {"import_s": perf() - t0, "ready": time.monotonic()}
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    t0 = perf()
    code = regenverify.cli.main(argv)
    report["wall_s"] = perf() - t0
    if tracer is not None:
        report["trace"] = tracer.report()
    report["peak_rss_mb"] = rss_mb()
    import numpy
    import scipy
    report["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
