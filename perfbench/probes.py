"""Per-layer probes: the median time of single public calls at n = 12, 100 and 1000.

Probe inputs are regular n-gons, so the figures do not depend on the seed and
every public call below runs its full path (``is_simple`` finds no crossing,
``classify_convexity`` reaches its simplicity test).
"""

from __future__ import annotations

import statistics
from time import perf_counter

SIZES = (12, 100, 1000)

# Repeat a call until about this many seconds are spent, within the rep limits.
PROBE_SECONDS = 0.1
MIN_REPS = 5
MAX_REPS = 500


def median_us(fn) -> float:
    start = perf_counter()
    fn()
    first = perf_counter() - start
    if first >= PROBE_SECONDS:
        # a slow call: the first one counts, and two more give a median
        times = [first]
        reps = 2
    else:
        times = []
        reps = max(MIN_REPS, min(MAX_REPS, int(PROBE_SECONDS / max(first, 1e-9))))
    for _ in range(reps):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e6


def run_probes(ps) -> dict:
    flows = {
        "linear": ps.FlowSpec.linear(),
        "menger_melnikov": ps.FlowSpec.menger_melnikov(),
        "bisector_unit": ps.FlowSpec.bisector(),
        "bisector_norm": ps.FlowSpec.bisector(speed_mode=ps.BisectorSpeedMode.NORM_MATCHED),
    }
    out = {}
    for n in SIZES:
        p = ps.generate(ps.GeneratorSpec(ps.GeneratorKind.REGULAR, n=n), 0)
        for name, spec in flows.items():
            out[f"flows.velocity_us.{name}.n{n}"] = median_us(lambda: ps.velocity(p, spec))
            out[f"flows.step_rk4_us.{name}.n{n}"] = median_us(lambda: ps.step_rk4(p, spec, 1e-4))
        out[f"geometry.diameter_us.n{n}"] = median_us(p.diameter)
        out[f"geometry.min_edge_us.n{n}"] = median_us(p.min_edge)
        out[f"geometry.is_simple_us.n{n}"] = median_us(lambda: ps.is_simple(p))
        out[f"geometry.classify_star_us.n{n}"] = median_us(lambda: ps.classify_star(p))
        out[f"geometry.classify_convexity_us.n{n}"] = median_us(lambda: ps.classify_convexity(p))
        out[f"spectral.decompose_us.n{n}"] = median_us(lambda: ps.decompose(p))
    return out
