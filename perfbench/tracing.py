"""Per-layer tracing for the traced benchmark run.

The tracer rebinds the layer entry points that the package looks up by module
attribute (zgff.mcmc.run_chain, zgff.experiments.extract_level_lines, ...)
with wrappers that record spans and counts in memory. Nothing in the package
is edited. Layers are named after the zgff modules.

Two kinds of wrapper exist:
  * coarse entry points record one span each (name, start, end, parent span,
    run id) and are written out with the run record;
  * entry points called once per sweep or more often (sweep_uniforms,
    SurfaceConfig.padded, on_sweep callbacks, the uniform block generator) are
    aggregated: their calls and times are summed and subtracted from the
    enclosing span's self time, but no per-call span is stored.
airy is wrapped as a call counter only. Functions called once per site, such
as conditional_tables, are never wrapped.

Self time of a name is the wrapped call's duration minus the duration of the
wrapped calls it made. The time a wrapper spends on its own bookkeeping is
summed into overhead_s: it is the part of a traced run that an untraced run
does not spend.
"""

from __future__ import annotations

import inspect
import math
import os
from time import perf_counter

import numpy as np

ON_SWEEP = "mcmc.on_sweep"
OP_PREFIX = "op."


class _Frame:
    __slots__ = ("name", "span", "child_s", "children")

    def __init__(self, name, span):
        self.name = name
        self.span = span          # index into Tracer.spans, or None
        self.child_s = 0.0        # wall time of direct wrapped children
        self.children = {}        # child name -> [calls, seconds]


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent span, run id]
        self.run_id = "setup"
        self.totals = {}          # name -> [calls, inclusive s, self s]
        self.counts = {}
        self.overhead_s = 0.0
        self._stack = []
        self._restore = []

    # -- bookkeeping -------------------------------------------------------

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def put_max(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def reset(self):
        """Forget totals and counts (called once set-up is done)."""
        self.totals.clear()
        self.counts.clear()
        self.overhead_s = 0.0

    def parent_name(self):
        return self._stack[-1].name if self._stack else None

    def _enter(self, name, record):
        span = None
        if record:
            parent = self._stack[-1].span if self._stack else None
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.run_id])
        frame = _Frame(name, span)
        self._stack.append(frame)
        return frame

    def _leave(self, frame, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        tot = self.totals.setdefault(frame.name, [0, 0.0, 0.0])
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - frame.child_s
        if frame.span is not None:
            self.spans[frame.span][1] = t0
            self.spans[frame.span][2] = t1
        return dur

    def _charge_parent(self, name, t_in):
        """Charge a finished call, wrapper included, to the enclosing frame."""
        t_out = perf_counter()
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += t_out - t_in
            entry = parent.children.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += t_out - t_in
        return t_out

    def op(self, name):
        """Context manager around one benchmark operation (a root span)."""
        return _OpSpan(self, OP_PREFIX + name)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr, name, record=True, on_return=None,
             wrap_on_sweep=False):
        """Rebind owner.attr with a timing wrapper; a missing owner or
        attribute is skipped so the tracer keeps working when a layer is
        refactored (its metrics then read 0)."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        self._restore.append((owner, attr, fn))
        tracer = self
        sig = None
        if on_return is not None or wrap_on_sweep:
            try:
                sig = inspect.signature(fn)
            except (TypeError, ValueError):
                sig = None

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            if wrap_on_sweep:
                args, kwargs = tracer._wrap_callback(sig, args, kwargs)
            frame = tracer._enter(name, record)
            returned = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t1 = perf_counter()
                dur = tracer._leave(frame, t0, t1)
                if returned and on_return is not None:
                    on_return(tracer, _bind(sig, args, kwargs), result, dur, frame)
                t_out = tracer._charge_parent(name, t_in)
                tracer.overhead_s += (t0 - t_in) + (t_out - t1)
            return result

        setattr(owner, attr, wrapper)

    def count_calls(self, owner, attr, key):
        """Rebind owner.attr with a bare call counter (no timing)."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        self._restore.append((owner, attr, fn))
        counts = self.counts

        def counter(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        setattr(owner, attr, counter)

    def _wrap_callback(self, sig, args, kwargs):
        bound = _bind(sig, args, kwargs)
        cb = bound.get("on_sweep") if bound is not None else None
        if cb is None:
            return args, kwargs
        tracer = self

        def on_sweep(*a, **kw):
            t_in = perf_counter()
            frame = tracer._enter(ON_SWEEP, False)
            t0 = perf_counter()
            try:
                return cb(*a, **kw)
            finally:
                t1 = perf_counter()
                tracer._leave(frame, t0, t1)
                t_out = tracer._charge_parent(ON_SWEEP, t_in)
                tracer.overhead_s += (t0 - t_in) + (t_out - t1)

        if "on_sweep" in kwargs:
            kwargs = dict(kwargs, on_sweep=on_sweep)
        else:
            names = list(sig.parameters)
            args = list(args)
            args[names.index("on_sweep")] = on_sweep
        return tuple(args), kwargs

    def unwrap(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()


class _OpSpan:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.t_in = perf_counter()
        self.frame = self.tracer._enter(self.name, True)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        self.tracer._leave(self.frame, self.t0, t1)
        self.tracer.overhead_s += self.t0 - self.t_in
        self.tracer.add("trace.op_covered_s", self.frame.child_s)
        return False


def _bind(sig, args, kwargs):
    if sig is None:
        return None
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError:
        return None
    return bound.arguments


# -- per-layer hooks -------------------------------------------------------

def _tail_extra(beta, p):
    """Kernel half-window beyond the neighbour span used by the v0.1.0
    checkerboard kernel: weights exp(-4 beta k^p) drop below 1e-16."""
    return max(1, int(math.ceil((37.0 / (4.0 * beta)) ** (1.0 / p))) + 1)


def kernel_temp_bytes(config, params):
    """Bytes of the (sites, 2K+1, 4) float64 distance temporary that one
    colour phase of the checkerboard kernel builds for this configuration."""
    L = config.L
    g = np.zeros((L + 2, L + 2), dtype=np.int64)
    g[1:L + 1, 1:L + 1] = config.heights
    for (x, y), v in config.boundary.items():
        g[x + 1, y + 1] = v
    nb = np.stack([g[:-2, 1:-1], g[2:, 1:-1], g[1:-1, :-2], g[1:-1, 2:]])
    span = nb.max(axis=0) - nb.min(axis=0)
    xs, ys = np.meshgrid(np.arange(L), np.arange(L), indexing="ij")
    extra = _tail_extra(params.beta, params.p)
    worst = 0
    for colour in (0, 1):
        sel = (xs + ys) % 2 == colour
        if sel.any():
            K = int(span[sel].max()) + extra
            worst = max(worst, int(sel.sum()) * (2 * K + 1) * 4 * 8)
    return worst


def _on_run_chain(tr, a, result, dur, frame):
    state, n = a["state"], a["n_sweeps"]
    L = state.config.L
    sites = n * L * L
    scan = state.scan_order
    tr.add("mcmc.sweeps", n)
    tr.add("mcmc.site_updates", sites)
    callback_s = frame.children.get(ON_SWEEP, (0, 0.0))[1]
    tr.add(f"kernel_s.{scan}", dur - callback_s)
    tr.add(f"kernel_sites.{scan}", sites)
    if scan != "checkerboard":
        tr.add("uniforms.useful", sites)   # read straight from the stream
    else:
        tr.put_max("mcmc.kernel_temp_bytes",
                   kernel_temp_bytes(state.config, a["params"]))
    if tr.parent_name() == "scales.estimate_height_prob":
        tr.add("scales.site_updates", sites)


def _on_sample_equilibrium(tr, a, result, dur, frame):
    snaps = result[0]
    tr.put_max("mcmc.snapshots_held_bytes",
               sum(int(s.heights.nbytes) for s in snaps))


def _on_sweep_uniforms(tr, a, result, dur, frame):
    tr.add("uniforms.useful", int(np.size(result)))


def _on_uniform_block(tr, a, result, dur, frame):
    stream = a["self"]
    tr.add("mcmc.uniforms.generated", int(np.size(stream._block)))


def _pair_sweeps(frame):
    """Single-pair coupled sweeps made under this frame: each reads one
    uniform vector through sweep_uniforms."""
    return frame.children.get("mcmc.sweep_uniforms", (0, 0.0))[0]


def _on_coupled_batch(tr, a, result, dur, frame):
    B, W, _ = a["pad_lo"].shape
    n = a["n_sweeps"]
    tr.add("mcmc.sweeps", 2 * B * n)
    tr.add("mcmc.site_updates", 2 * B * n * (W - 2) ** 2)
    tr.add("mcmc.coupled.violations", int(result))


def _on_pair_coupling(tr, a, result, dur, frame):
    k = _pair_sweeps(frame)
    tr.add("mcmc.sweeps", 2 * k)
    tr.add("mcmc.site_updates", 2 * k * a["L"] ** 2)


def _on_extract(tr, a, result, dur, frame):
    tr.add("levellines.extract.calls", 1)
    tr.add("levellines.loops", len(result))
    tr.add("levellines.bonds_walked", sum(lp.length for lp in result))
    macro = [lp for lp in result if lp.macroscopic]
    if macro:
        top = max(macro, key=lambda lp: lp.interior_area)
        tr.add("levellines.top_loop_bonds", top.length)


def _on_estimate(tr, a, result, dur, frame):
    tr.add("scales.samples", result.n_samples)
    tr.add("scales.hits_h2", int(round(result.prob(2) * result.n_samples)))


def _on_fs_model(tr, a, result, dur, frame):
    tr.add("fs.model_builds", 1)


def _on_bridge(tr, a, result, dur, frame):
    tr.add("rw.bridge_samples", len(result[0]))
    if a.get("method") == "mcmc":
        tr.add("rw.bridge_mcmc_s", dur - frame.child_s)


def _on_pipeline(tr, a, result, dur, frame):
    out_dir = a["out_dir"]
    for name in os.listdir(out_dir):
        tr.add("experiments.output_bytes",
               os.path.getsize(os.path.join(out_dir, name)))


def install(tracer):
    """Wrap every traced layer entry point; returns the tracer."""
    from zgff import experiments, fs, mcmc, rw, scales, stats, surface

    for mod in (mcmc, scales):
        tracer.wrap(mod, "run_chain", "mcmc.run_chain",
                    on_return=_on_run_chain, wrap_on_sweep=True)
    tracer.wrap(mcmc, "sweep_uniforms", "mcmc.sweep_uniforms", record=False,
                on_return=_on_sweep_uniforms)
    tracer.wrap(getattr(mcmc, "UniformStream", None), "_load", "mcmc.uniform_block",
                record=False, on_return=_on_uniform_block)
    tracer.wrap(mcmc, "sample_equilibrium", "mcmc.sample_equilibrium",
                on_return=_on_sample_equilibrium)
    tracer.wrap(mcmc, "coupled_batch_run", "mcmc.coupled_batch_run",
                on_return=_on_coupled_batch)
    tracer.wrap(mcmc, "cftp_sample", "mcmc.cftp_sample",
                on_return=_on_pair_coupling)
    tracer.wrap(mcmc, "sandwich_diagnostic", "mcmc.sandwich_diagnostic",
                on_return=_on_pair_coupling)
    tracer.wrap(surface.SurfaceConfig, "padded", "surface.padded", record=False)
    for mod in (scales, experiments):
        tracer.wrap(mod, "estimate_height_prob", "scales.estimate_height_prob",
                    on_return=_on_estimate)
        tracer.wrap(mod, "compute_scales", "scales.compute_scales")
        tracer.wrap(mod, "ld_diagnostics", "scales.ld_diagnostics")
    tracer.wrap(experiments, "extract_level_lines",
                "levellines.extract_level_lines", on_return=_on_extract)
    tracer.wrap(experiments, "profile", "levellines.profile")
    tracer.wrap(experiments, "FSModel", "fs.FSModel", on_return=_on_fs_model)
    tracer.wrap(experiments, "sample_paths", "fs.sample_paths")
    tracer.wrap(experiments, "ks_distance", "fs.ks_distance")
    tracer.count_calls(fs, "airy", "airy.calls")
    for mod in (rw, experiments):
        tracer.wrap(mod, "transfer_matrix_exact", "rw.transfer_matrix_exact")
        tracer.wrap(mod, "sample_tilted_bridge", "rw.sample_tilted_bridge",
                    on_return=_on_bridge)
    tracer.wrap(stats, "integrated_autocorr_time",
                "stats.integrated_autocorr_time")
    for stage in ("end_to_end", "fs"):
        tracer.wrap(experiments, f"run_{stage}", f"experiments.run_{stage}",
                    on_return=_on_pipeline)
    return tracer


# -- metrics ---------------------------------------------------------------

# Name -> unit of every per-layer metric, in report order.
PER_LAYER_UNITS = {
    "mcmc.ns_per_site.checkerboard": "ns",
    "mcmc.ns_per_site.raster": "ns",
    "mcmc.run_chain.self_s": "s",
    "mcmc.sweeps": "count",
    "mcmc.site_updates": "count",
    "mcmc.kernel_temp_bytes": "B",
    "mcmc.snapshots_held_bytes": "B",
    "mcmc.uniforms.s": "s",
    "mcmc.uniforms.generated": "count",
    "mcmc.uniforms.useful_ratio": "ratio",
    "mcmc.coupled.s": "s",
    "mcmc.coupled.violations": "count",
    "surface.padded.calls": "count",
    "surface.padded.s": "s",
    "levellines.extract.s": "s",
    "levellines.extract.calls": "count",
    "levellines.bonds_walked": "count",
    "levellines.loops": "count",
    "levellines.top_loop_bonds": "count",
    "levellines.useful_ratio": "ratio",
    "levellines.profile.s": "s",
    "scales.estimate.self_s": "s",
    "scales.samples": "count",
    "scales.hits_h2": "count",
    "scales.samples_per_site_update": "ratio",
    "scales.compute.s": "s",
    "fs.model_build.s": "s",
    "fs.model_builds": "count",
    "airy.calls": "count",
    "fs.sample_paths.s": "s",
    "fs.ks.s": "s",
    "rw.transfer.s": "s",
    "rw.bridge_mcmc.s": "s",
    "rw.bridge_samples": "count",
    "stats.autocorr.s": "s",
    "experiments.stage_s.endtoend": "s",
    "experiments.stage_s.fs": "s",
    "experiments.stage_s.scales": "s",
    "experiments.output_bytes": "B",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
    "failed_share": "ratio",
}


def per_layer_metrics(tracer, rounds, attempted, failed):
    """Per-layer values of one traced run. Sums are per round (one workload
    instance), ratios are ratios of run totals, byte sizes are maxima."""
    t = tracer.totals
    c = tracer.counts
    n = max(1, rounds)

    def incl(name):
        return t.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return t.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return t.get(name, (0, 0.0, 0.0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    def ns_per_site(scan):
        return 1e9 * ratio(c.get(f"kernel_s.{scan}", 0.0),
                           c.get(f"kernel_sites.{scan}", 0))

    op_s = sum(v[1] for k, v in t.items() if k.startswith(OP_PREFIX))
    values = {
        "mcmc.ns_per_site.checkerboard": ns_per_site("checkerboard"),
        "mcmc.ns_per_site.raster": ns_per_site("raster"),
        "mcmc.run_chain.self_s": self_s("mcmc.run_chain") / n,
        "mcmc.sweeps": c.get("mcmc.sweeps", 0) / n,
        "mcmc.site_updates": c.get("mcmc.site_updates", 0) / n,
        "mcmc.kernel_temp_bytes": c.get("mcmc.kernel_temp_bytes", 0),
        "mcmc.snapshots_held_bytes": c.get("mcmc.snapshots_held_bytes", 0),
        "mcmc.uniforms.s": (self_s("mcmc.sweep_uniforms")
                            + incl("mcmc.uniform_block")) / n,
        "mcmc.uniforms.generated": c.get("mcmc.uniforms.generated", 0) / n,
        "mcmc.uniforms.useful_ratio": ratio(c.get("uniforms.useful", 0),
                                            c.get("mcmc.uniforms.generated", 0)),
        "mcmc.coupled.s": (incl("mcmc.coupled_batch_run")
                           + incl("mcmc.cftp_sample")
                           + incl("mcmc.sandwich_diagnostic")) / n,
        "mcmc.coupled.violations": c.get("mcmc.coupled.violations", 0),
        "surface.padded.calls": calls("surface.padded") / n,
        "surface.padded.s": incl("surface.padded") / n,
        "levellines.extract.s": self_s("levellines.extract_level_lines") / n,
        "levellines.extract.calls": c.get("levellines.extract.calls", 0) / n,
        "levellines.bonds_walked": c.get("levellines.bonds_walked", 0) / n,
        "levellines.loops": c.get("levellines.loops", 0) / n,
        "levellines.top_loop_bonds": c.get("levellines.top_loop_bonds", 0) / n,
        "levellines.useful_ratio": ratio(c.get("levellines.top_loop_bonds", 0),
                                         c.get("levellines.bonds_walked", 0)),
        "levellines.profile.s": self_s("levellines.profile") / n,
        "scales.estimate.self_s": self_s("scales.estimate_height_prob") / n,
        "scales.samples": c.get("scales.samples", 0) / n,
        "scales.hits_h2": c.get("scales.hits_h2", 0) / n,
        "scales.samples_per_site_update": ratio(c.get("scales.samples", 0),
                                                c.get("scales.site_updates", 0)),
        "scales.compute.s": incl("scales.compute_scales") / n,
        "fs.model_build.s": incl("fs.FSModel") / n,
        "fs.model_builds": c.get("fs.model_builds", 0) / n,
        "airy.calls": c.get("airy.calls", 0) / n,
        "fs.sample_paths.s": incl("fs.sample_paths") / n,
        "fs.ks.s": incl("fs.ks_distance") / n,
        "rw.transfer.s": incl("rw.transfer_matrix_exact") / n,
        "rw.bridge_mcmc.s": c.get("rw.bridge_mcmc_s", 0.0) / n,
        "rw.bridge_samples": c.get("rw.bridge_samples", 0) / n,
        "stats.autocorr.s": incl("stats.integrated_autocorr_time") / n,
        "experiments.stage_s.endtoend": incl("experiments.run_end_to_end") / n,
        "experiments.stage_s.fs": incl("experiments.run_fs") / n,
        "experiments.stage_s.scales": incl(OP_PREFIX + "scales_stage") / n,
        "experiments.output_bytes": c.get("experiments.output_bytes", 0) / n,
        "trace.overhead_s": tracer.overhead_s / n,
        "trace.span_coverage": ratio(c.get("trace.op_covered_s", 0.0), op_s),
        "failed_share": ratio(failed, attempted),
    }
    return values

