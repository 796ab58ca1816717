"""In-memory span recorder and the wrappers that feed it.

A span is (id, parent id, name, start, end) in ``time.perf_counter``
seconds; the parent is the span open on the same (single) thread when the
span began, or -1.  Spans are only kept in memory while the benchmark runs
and written out once at the end.

The wrappers are installed where each caller looks a function up, e.g.
``linboltz.kinetic.phi`` rather than ``linboltz.functionals.phi``, because
``kinetic`` imports it by name.  The program's own files are not changed.
"""

import functools
import importlib
import time
from collections import defaultdict

_clock = time.perf_counter


class Recorder:
    """Spans plus free-form counters, both kept in memory."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._next_id = 0

    def span(self, name):
        return _Span(self, name)

    def wrap(self, name, fn, hook=None):
        """``fn`` timed as span ``name``; ``hook(counters, args, result)``
        runs after a successful call to record work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    def write_tsv(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


class _Span:
    __slots__ = ("rec", "name", "sid", "parent", "start")

    def __init__(self, rec, name):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        self.sid = rec._next_id
        rec._next_id += 1
        self.parent = rec._stack[-1] if rec._stack else -1
        rec._stack.append(self.sid)
        self.start = _clock()
        return self

    def __exit__(self, *exc):
        end = _clock()
        rec = self.rec
        rec._stack.pop()
        rec.spans.append((self.sid, self.parent, self.name, self.start, end))
        return False


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per span name: total time, self time and call count.

    Self time is a span's duration minus the part of it that its child
    spans cover.
    """
    children = defaultdict(list)
    for _, parent, _, start, end in spans:
        children[parent].append((start, end))
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for sid, _, name, start, end in spans:
        dur = end - start
        total[name] += dur
        self_time[name] += dur - covered(children.get(sid, ()), start, end)
        calls[name] += 1
    return total, self_time, calls


# --- what gets wrapped ------------------------------------------------------


def _count_simulate(counters, args, traj):
    n_steps, n_x = traj.f.shape[0] - 1, traj.f.shape[1]
    counters["steps"] += n_steps
    counters["cell_steps"] += n_steps * n_x
    counters["trajectory_mb"] = max(counters["trajectory_mb"], traj.f.nbytes / 1e6)


def _count_certificate(counters, args, cert):
    traj, model = args[0], args[1]
    counters["cert_pairs"] += (traj.f.shape[0] - 1) * traj.f.shape[1] * model.n_nodes**2


def _count_mc(counters, args, est):
    config = args[1]
    counters["path_time"] += config.n_paths * config.horizon


# (module, attribute path inside it, span name, counter hook)
TARGETS = (
    ("linboltz.kinetic", "phi", "functionals.phi", None),
    ("linboltz.kinetic", "kinematic_rate", "functionals.kinematic_rate", None),
    ("linboltz.kinetic", "dirichlet_form", "functionals.dirichlet_form", None),
    ("linboltz.kinetic", "relative_entropy", "functionals.relative_entropy", None),
    ("linboltz.kinetic", "current_of", "kinetic.current_of", None),
    ("linboltz.kinetic", "shift", "spectral.shift", None),
    ("linboltz.kinetic", "Stepper.collide_half", "kinetic.collide_half", None),
    ("linboltz.kinetic", "Stepper.advect_full", "kinetic.advect_full", None),
    ("linboltz.cli", "simulate", "kinetic.simulate", _count_simulate),
    ("linboltz.diffusive", "simulate", "kinetic.simulate", _count_simulate),
    ("linboltz.cli", "edi_certificate", "kinetic.edi_certificate", _count_certificate),
    ("linboltz.cli", "write_certificate_csv", "kinetic.write_certificate_csv", None),
    ("linboltz.cli", "save_trajectory", "kinetic.save_trajectory", None),
    ("linboltz.cli", "load_trajectory", "kinetic.load_trajectory", None),
    ("linboltz.heat", "gradient", "spectral.gradient", None),
    ("linboltz.heat", "HeatFlow.current_at", "heat.current_at", None),
    ("linboltz.heat", "HeatFlow.rho_at", "heat.rho_at", None),
    ("linboltz.cli", "sweep", "diffusive.sweep", None),
    ("linboltz.velocity", "spectral_gap_probe", "velocity.spectral_gap_probe", None),
    ("linboltz.velocity", "to_file", "velocity.to_file", None),
    ("linboltz.velocity", "poisson_solve", "velocity.poisson_solve", None),
    ("linboltz.diffusive", "poisson_solve", "velocity.poisson_solve", None),
    ("linboltz.velocity", "poisson_solve_dense", "velocity.poisson_solve_dense", None),
    ("linboltz.models", "build_model", "models.build_model", None),
    ("linboltz.cli", "estimate_D", "montecarlo.estimate_D", _count_mc),
)


def instrument(recorder):
    """Install the wrappers; returns a function that removes them again."""
    undo = []
    for module, path, name, hook in TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        setattr(owner, attr, recorder.wrap(name, original, hook))
        undo.append((owner, attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
