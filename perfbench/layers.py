"""Per-layer metrics from spans recorded at the program's module boundaries.

`install` rebinds the public names one module calls in another; `measure`
turns the spans of one traced repetition into the per-layer numbers.
Layer names follow the package's modules.
"""

from __future__ import annotations

from tracer import Span, Tracer, self_times
from workloads import is_prime

# (metric, unit), in the order BENCHMARK.json lists them
METRICS = [
    ("cli.self_s", "s"),
    ("moments.k2_s", "s"),
    ("moments.k20_s", "s"),
    ("moments.self_s", "s"),
    ("moments.rejections", "count"),
    ("moments.repair_calls", "count"),
    ("moments.useful_ratio", "ratio"),
    ("moments.time_to_rse_s", "s"),
    ("special_fn.ftable_build_s", "s"),
    ("special_fn.a1_s", "s"),
    ("special_fn.supf_s", "s"),
    ("special_fn.g_batch_calls", "count"),
    ("special_fn.g_batch_points", "count"),
    ("special_fn.g_batch_s", "s"),
    ("special_fn.g_batch_ns_per_point", "ns"),
    ("special_fn.g_batch_ok_ratio", "ratio"),
    ("special_fn.g_func_calls", "count"),
    ("special_fn.g_func_s", "s"),
    ("special_fn.g_func_self_s", "s"),
    ("wilton.calls", "count"),
    ("wilton.terms", "count"),
    ("wilton.self_s", "s"),
    ("cf_dynamics.orbit_calls", "count"),
    ("cf_dynamics.orbit_steps", "count"),
    ("cf_dynamics.orbit_s", "s"),
    ("cotangent.sweep_s.prime", "s"),
    ("cotangent.sweep_s.composite", "s"),
    ("cotangent.values_s.prime", "s"),
    ("cotangent.values_s.composite", "s"),
    ("cotangent.residues", "count"),
    ("cotangent.us_per_residue", "us"),
    ("cotangent.neumaier_calls", "count"),
    ("cotangent.neumaier_s", "s"),
    ("trace_overhead", "ratio"),
]

# work counts that must repeat exactly between traced repetitions
COUNTS = [name for name, unit in METRICS if unit == "count"]

# measured by the set-up stage timers, not per repetition
SETUP = {
    "special_fn.ftable_build_s": "ftable_build_s",
    "special_fn.a1_s": "a1_s",
    "special_fn.supf_s": "supf_s",
}


def _moment_note(args, kwargs, est):
    # the CLI calls moments.moment(K, cfg=..., seed=..., samples=..., method=...)
    return {
        "K": float(args[0]),
        "samples": int(kwargs["samples"]),
        "rejections": int(est.rejections),
        "rse": est.std_error / est.value if est.value else float("nan"),
    }


def _g_batch_note(args, kwargs, result):
    return {"points": int(len(args[0])), "ok": int(result[2].sum())}


def _orbit_note(args, kwargs, result):
    return {"steps": len(result[0])}


def _sweep_note(args, kwargs, summary):
    return {"b": int(args[0]), "residues": int(summary.count)}


def _values_note(args, kwargs, values):
    return {"b": int(args[0]), "residues": len(args[1])}


def install(tracer: Tracer, program) -> None:
    """Rebind the traced names; `tracer.remove()` restores them."""
    sf, cot = program.special_fn, program.cotangent
    tracer.wrap(program.cli, "run", "cli.run")
    tracer.wrap(program.moments, "moment", "moments.moment", _moment_note)
    tracer.wrap(program.moments, "g_batch", "moments.g_batch", _g_batch_note)
    tracer.wrap(sf, "g_func", "special_fn.g_func")
    tracer.wrap(sf, "wilton", "special_fn.wilton", lambda a, k, w: {"terms": w.terms_used})
    tracer.wrap(sf, "orbit_arrays", "special_fn.orbit_arrays", _orbit_note)
    tracer.wrap(program.wilton, "orbit_arrays", "wilton.orbit_arrays", _orbit_note)
    tracer.wrap(sf, "a1_constant", "special_fn.a1_constant")
    tracer.wrap(sf, "sup_f_bound", "special_fn.sup_f_bound")
    tracer.wrap(cot, "c0_sweep", "cotangent.c0_sweep", _sweep_note)
    tracer.wrap(cot, "c0_values", "cotangent.c0_values", _values_note)
    tracer.wrap(cot, "neumaier_sum", "cotangent.neumaier_sum")


def measure(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of one traced repetition (no set-up, no overhead)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(items, key=None):
        return float(sum(key(s) if key else s.duration for s in items))

    moment = named("moments.moment")
    moment_ids = {s.id for s in moment}
    g_batch = named("moments.g_batch")
    repair_calls = sum(s.parent in moment_ids for s in g_batch) - len(moment)
    batch_points = sum(s.attrs["points"] for s in g_batch)
    batch_s = total(g_batch)
    orbits = named("special_fn.orbit_arrays") + named("wilton.orbit_arrays")
    sweeps, values = named("cotangent.c0_sweep"), named("cotangent.c0_values")
    residues = sum(s.attrs["residues"] for s in sweeps + values)
    neumaier = named("cotangent.neumaier_sum")

    def by_b(items, prime):
        return total([s for s in items if is_prime(s.attrs["b"]) == prime])

    return {
        "cli.self_s": total(named("cli.run"), lambda s: own[s.id]),
        "moments.k2_s": total([s for s in moment if s.attrs["K"] == 2.0]),
        "moments.k20_s": total([s for s in moment if s.attrs["K"] == 20.0]),
        "moments.self_s": total(moment, lambda s: own[s.id]),
        "moments.rejections": sum(s.attrs["rejections"] for s in moment),
        "moments.repair_calls": max(repair_calls, 0),
        "moments.useful_ratio": (
            sum(s.attrs["samples"] for s in moment) / batch_points if batch_points else 0.0
        ),
        "moments.time_to_rse_s": total(moment, lambda s: s.duration * (s.attrs["rse"] / 1e-3) ** 2),
        "special_fn.g_batch_calls": len(g_batch),
        "special_fn.g_batch_points": batch_points,
        "special_fn.g_batch_s": batch_s,
        "special_fn.g_batch_ns_per_point": batch_s / batch_points * 1e9 if batch_points else 0.0,
        "special_fn.g_batch_ok_ratio": (
            sum(s.attrs["ok"] for s in g_batch) / batch_points if batch_points else 0.0
        ),
        "special_fn.g_func_calls": len(named("special_fn.g_func")),
        "special_fn.g_func_s": total(named("special_fn.g_func")),
        "special_fn.g_func_self_s": total(named("special_fn.g_func"), lambda s: own[s.id]),
        "wilton.calls": len(named("special_fn.wilton")),
        "wilton.terms": sum(s.attrs["terms"] for s in named("special_fn.wilton")),
        "wilton.self_s": total(named("special_fn.wilton"), lambda s: own[s.id]),
        "cf_dynamics.orbit_calls": len(orbits),
        "cf_dynamics.orbit_steps": sum(s.attrs["steps"] for s in orbits),
        "cf_dynamics.orbit_s": total(orbits),
        "cotangent.sweep_s.prime": by_b(sweeps, True),
        "cotangent.sweep_s.composite": by_b(sweeps, False),
        "cotangent.values_s.prime": by_b(values, True),
        "cotangent.values_s.composite": by_b(values, False),
        "cotangent.residues": residues,
        "cotangent.us_per_residue": (
            (total(sweeps) + total(values)) / residues * 1e6 if residues else 0.0
        ),
        "cotangent.neumaier_calls": len(neumaier),
        "cotangent.neumaier_s": total(neumaier),
    }
