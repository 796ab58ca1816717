"""Metric names, units and how each is computed from a run's measurements.

End-to-end metrics come from the untraced run.  Per-layer metrics come from
the traced run: each is a per-sequence value, and a run reports the median
over its traced sequences.
"""

import statistics

from spans import summarize

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "cli.kinetic_run_s": "s",
    "cli.certify_s": "s",
    "cli.model_info_s": "s",
    "cli.diffusion_s": "s",
    "cli.mc_estimate_s": "s",
    "cli.diffusive_sweep_s": "s",
    "cli.self_s": "s",
    "functionals.phi_s": "s",
    "functionals.phi_calls": "count",
    "functionals.kinematic_rate_s": "s",
    "functionals.kinematic_rate_calls": "count",
    "functionals.dirichlet_form_s": "s",
    "functionals.relative_entropy_s": "s",
    "kinetic.current_of_s": "s",
    "kinetic.edi_certificate_s": "s",
    "kinetic.write_certificate_csv_s": "s",
    "kinetic.cert_ns_per_pair": "ns",
    "kinetic.simulate_s": "s",
    "kinetic.steps": "count",
    "kinetic.collide_half_s": "s",
    "kinetic.advect_full_s": "s",
    "kinetic.cell_steps_per_s": "1/s",
    "kinetic.trajectory_mb": "MB",
    "kinetic.save_trajectory_s": "s",
    "kinetic.load_trajectory_s": "s",
    "spectral.shift_s": "s",
    "spectral.gradient_s": "s",
    "heat.current_at_s": "s",
    "heat.current_at_calls": "count",
    "heat.rho_at_s": "s",
    "diffusive.sweep_s": "s",
    "diffusive.sweep_self_s": "s",
    "velocity.spectral_gap_probe_s": "s",
    "velocity.to_file_s": "s",
    "velocity.poisson_solve_s": "s",
    "velocity.poisson_iterations": "count",
    "velocity.poisson_solve_dense_s": "s",
    "models.build_model_s": "s",
    "models.build_model_calls": "count",
    "montecarlo.estimate_D_s": "s",
    "montecarlo.path_time_per_s": "1/s",
    "traced_job_s": "s",
    "trace_overhead_s": "s",
}

# the root span of each CLI call -> its metric
_CLI_TIMES = {
    "cli.kinetic-run": "cli.kinetic_run_s",
    "cli.certify": "cli.certify_s",
    "cli.model-info": "cli.model_info_s",
    "cli.diffusion": "cli.diffusion_s",
    "cli.mc-estimate": "cli.mc_estimate_s",
    "cli.diffusive-sweep": "cli.diffusive_sweep_s",
}
# spans reported as their total time, under the metric "<span>_s"
_LAYER_SPANS = (
    "functionals.phi", "functionals.kinematic_rate", "functionals.dirichlet_form",
    "functionals.relative_entropy", "kinetic.current_of", "kinetic.edi_certificate",
    "kinetic.write_certificate_csv", "kinetic.simulate", "kinetic.collide_half",
    "kinetic.advect_full", "kinetic.save_trajectory", "kinetic.load_trajectory",
    "spectral.shift", "spectral.gradient", "heat.current_at", "heat.rho_at",
    "diffusive.sweep", "velocity.spectral_gap_probe", "velocity.to_file",
    "velocity.poisson_solve", "velocity.poisson_solve_dense", "models.build_model",
    "montecarlo.estimate_D",
)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def sequence_layers(spans, counters, sequence_s):
    """Per-layer values of one traced job sequence (all but the overhead)."""
    total, self_time, calls = summarize(spans)
    out = {metric: total.get(span, 0.0) for span, metric in _CLI_TIMES.items()}
    out.update({span + "_s": total.get(span, 0.0) for span in _LAYER_SPANS})
    out.update({
        "cli.self_s": sum(v for k, v in self_time.items() if k.startswith("cli.")),
        "functionals.phi_calls": calls.get("functionals.phi", 0),
        "functionals.kinematic_rate_calls": calls.get("functionals.kinematic_rate", 0),
        "heat.current_at_calls": calls.get("heat.current_at", 0),
        "models.build_model_calls": calls.get("models.build_model", 0),
        "diffusive.sweep_self_s": self_time.get("diffusive.sweep", 0.0),
        "kinetic.steps": counters.get("steps", 0),
        "kinetic.trajectory_mb": counters.get("trajectory_mb", 0.0),
        "kinetic.cell_steps_per_s": _ratio(counters.get("cell_steps", 0),
                                           total.get("kinetic.simulate", 0.0)),
        "kinetic.cert_ns_per_pair": 1e9 * _ratio(total.get("kinetic.edi_certificate", 0.0),
                                                 counters.get("cert_pairs", 0)),
        "montecarlo.path_time_per_s": _ratio(counters.get("path_time", 0.0),
                                             total.get("montecarlo.estimate_D", 0.0)),
        "velocity.poisson_iterations": counters.get("poisson_iterations", 0),
        "traced_job_s": sequence_s,
    })
    return out


def per_layer(traced, untraced_s):
    """Median over traced sequences; ``untraced_s`` are plain sequence times."""
    out = {name: statistics.median(seq[name] for seq in traced)
           for name in traced[0]}
    out["trace_overhead_s"] = out["traced_job_s"] - statistics.median(untraced_s)
    return _with_units(out, PER_LAYER)


def end_to_end(setup_s, sequence_s, peak_rss_mb, attempted, failed):
    return _with_units({
        "setup_s": statistics.median(setup_s),
        "job_s": statistics.median(sequence_s),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }, END_TO_END)


def _with_units(values, units):
    if set(values) != set(units):
        raise ValueError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}
