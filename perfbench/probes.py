"""Per-module probes for the traced benchmark pass.

``install()`` wraps public simulator functions where they are looked up
(a module that imported a name keeps its own binding, so e.g.
``dense_gemm`` is patched in ``repro.arch.systolic`` and in each engine
module that imported it). Every wrapped call emits one span of category
``bench`` through the repo's own :mod:`repro.obs.trace` session, so a
forked pool worker's calls land on that worker's track. A few probes
add instants or span arguments that the useful-work ratios need.

``analyze()`` turns the merged trace into per-module self times (a span
minus the bench spans directly inside it) and counts.
"""

from __future__ import annotations

import functools
import weakref
from collections import defaultdict

from repro.obs import trace as obs_trace
from repro.obs.summarize import load_trace_events

CAT = "bench"

#: Every probed module; each reports ``<module>_s``.
MODULES = (
    "experiments.fig11", "experiments.fig12", "experiments.xval",
    "experiments.dse", "dse.evaluate", "dse.frontier", "runner.batch",
    "resultcache.key", "resultcache.get", "resultcache.put",
    "accel.run_layer", "accel.simulate_layer", "workloads.synth",
    "systolic.run_gemm", "gemm.compress", "gemm.output", "dap.prune",
    "smt.simulate", "sparten.run_gemm", "eyeriss.run_gemm",
    "scnn.run_gemm", "memory.profile", "energy.breakdown",
)

#: Modules whose ``_s`` metric is the span's total time, not its self
#: time: the artifact split of a pass and the runner's batch time.
TOTAL_TIME = ("experiments.fig11", "experiments.fig12", "experiments.xval",
              "experiments.dse", "runner.batch")

# GEMM outputs computed since the last layer simulation returned; the
# simulate-layer probe checks which of them the caller already freed.
_outputs = []


def region(name):
    """A bench span around a block of the benchmark's own code (a no-op
    when no trace session is active)."""
    return obs_trace.span(name, CAT)


def _probe(name, fn, args_of=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_args = args_of(*args, **kwargs) if args_of else {}
        with obs_trace.span(name, CAT, **span_args):
            out = fn(*args, **kwargs)
        if after is not None:
            after(out)
        return out

    return wrapper


def _patch(owner, attr, name, **hooks):
    setattr(owner, attr, _probe(name, getattr(owner, attr), **hooks))


def _keep_output(out):
    _outputs.append(weakref.ref(out))


def _count_discarded(_payload):
    for ref in _outputs:
        if ref() is None:
            obs_trace.instant("gemm.output_discarded", CAT)
    _outputs.clear()


def _dap_noop(result):
    if result.pruned_fraction == 0.0:
        obs_trace.instant("dap.noop", CAT)


def _synth_key(layer, seed=0, **_):
    # The operand memo's key: one synthesis per key is the minimum.
    return {"key": f"{layer.m}x{layer.k}x{layer.n}/w{layer.w_nnz}"
                   f"/a{layer.a_nnz}/{layer.w_density:.6f}"
                   f"/{layer.a_density:.6f}/s{seed}"}


def _smt_key(model, weight_density, act_density, stream_length=2048,
             rng=None):
    # SmtSA memoizes per instance on a 1% density grid; a process-wide
    # memo would key on the queue model's geometry plus that grid point.
    return {"key": f"T{model.threads}Q{model.fifo_depth}P{model.pes}"
                   f"S{model.skew}L{stream_length}"
                   f"/{round(weight_density * 100)}"
                   f"/{round(act_density * 100)}"}


def _dse_points(points, *args, **kwargs):
    return {"points": len(points)}


def install():
    """Patch every probed function (call once, before tracing starts)."""
    from repro.accel.base import AcceleratorModel
    from repro.arch import eyeriss, scnn, sparten, systolic
    from repro.arch.memory import MemorySystem
    from repro.arch.smt import SMTArrayModel
    from repro.design import dse
    from repro.energy.model import EnergyModel
    from repro.eval import experiments, resultcache, runner
    from repro.workloads import from_spec

    _patch(experiments, "fig11_full_models", "experiments.fig11")
    _patch(experiments, "fig12_alexnet_per_layer", "experiments.fig12")
    _patch(experiments, "xval_functional_vs_analytic", "experiments.xval")
    _patch(dse, "evaluate_points", "dse.evaluate", args_of=_dse_points)
    _patch(dse, "pareto_frontier_3d", "dse.frontier")
    _patch(runner, "simulate_layer_tasks", "runner.batch")
    _patch(resultcache, "payload_key", "resultcache.key")
    _patch(resultcache.ResultCache, "get", "resultcache.get")
    _patch(resultcache.ResultCache, "put", "resultcache.put")
    _patch(AcceleratorModel, "run_layer", "accel.run_layer")
    _patch(AcceleratorModel, "simulate_layer_functional",
           "accel.simulate_layer", after=_count_discarded)
    _patch(from_spec, "spec_operands", "workloads.synth", args_of=_synth_key)
    _patch(systolic.SystolicArray, "run_gemm", "systolic.run_gemm")
    _patch(systolic, "compress_cached", "gemm.compress")
    _patch(systolic, "dap_prune", "dap.prune", after=_dap_noop)
    for module in (systolic, sparten, eyeriss, scnn):
        _patch(module, "dense_gemm", "gemm.output", after=_keep_output)
    _patch(systolic, "dbb_gemm", "gemm.output", after=_keep_output)
    _patch(SMTArrayModel, "simulate", "smt.simulate", args_of=_smt_key)
    _patch(sparten.SparTenEngine, "run_gemm", "sparten.run_gemm")
    _patch(eyeriss.EyerissV2Engine, "run_gemm", "eyeriss.run_gemm")
    _patch(scnn.SCNNEngine, "run_gemm", "scnn.run_gemm")
    _patch(MemorySystem, "profile", "memory.profile")
    _patch(EnergyModel, "breakdown", "energy.breakdown")


def _spans(events):
    """Bench spans as (pid, name, args, total_us, self_us) and the bench
    instants by name. The runner's own ``layer`` spans come back with
    name ``None``: on a pool worker's track they are its busy time."""
    stacks = defaultdict(list)
    spans = []
    instants = defaultdict(int)
    for event in events:
        cat = event.get("cat")
        if cat not in (CAT, "layer"):
            continue
        ph = event["ph"]
        if ph == "i":
            instants[event["name"]] += 1
            continue
        stack = stacks[event["pid"], event["tid"], cat]
        if ph == "B":
            stack.append([event["name"], event.get("args", {}),
                          event["ts"], 0])
        elif ph == "E":
            name, args, start, child_us = stack.pop()
            total = event["ts"] - start
            if stack:
                stack[-1][3] += total
            if cat == CAT:
                spans.append((event["pid"], name, args, total,
                              total - child_us))
            else:
                spans.append((event["pid"], None, args, total, 0))
    return spans, instants


def _frac(part, whole):
    return part / whole if whole else 0.0


def analyze(trace_path, parent_pid, wall_s, registry):
    """Per-layer metrics of one traced pass.

    ``registry`` is the pass's ``repro.obs.metrics`` snapshot. Self
    times sum over every track (the parent and each pool worker).
    ``obs.coverage`` is the parent track's named self time over the
    pass's wall time; ``obs.worker_coverage`` is the worker tracks'
    named self time over their busy time (0 when no pool ran).
    """
    spans, instants = _spans(load_trace_events(trace_path))
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    keys = defaultdict(list)
    points = 0
    parent_self = worker_self = worker_busy = 0.0
    for pid, name, args, total_us, self_us in spans:
        if name is None:
            if pid != parent_pid:
                worker_busy += total_us / 1e6
            continue
        self_s[name] += self_us / 1e6
        total_s[name] += total_us / 1e6
        calls[name] += 1
        if "key" in args:
            keys[name].append((pid, args["key"]))
        points += args.get("points", 0)
        if pid == parent_pid:
            parent_self += self_us / 1e6
        else:
            worker_self += self_us / 1e6

    def reg(name, field="value"):
        return registry.get(name, {}).get(field) or 0

    out = {f"{name}_s": (total_s if name in TOTAL_TIME else self_s)[name]
           for name in MODULES}
    # Re-synthesis counts across processes (a pool worker synthesizes
    # again what the parent or another worker already did); SMT repeats
    # count within a process, the most a process-wide memo could save.
    synth_keys = [key for _, key in keys["workloads.synth"]]
    smt_keys = keys["smt.simulate"]
    workers = reg("runner.pool_workers")
    compute_s = reg("runner.compute_ns", "sum") / 1e9
    lookups = reg("result_cache.hits") + reg("result_cache.misses")
    out.update({
        "workloads.synth_calls": len(synth_keys),
        "workloads.synth_shapes": len(set(synth_keys)),
        "workloads.synth_per_layer": _frac(len(synth_keys),
                                           len(set(synth_keys))),
        "gemm.output_calls": calls["gemm.output"],
        "gemm.output_discarded_frac": _frac(
            instants["gemm.output_discarded"], calls["gemm.output"]),
        "dap.calls": calls["dap.prune"],
        "dap.noop_frac": _frac(instants["dap.noop"], calls["dap.prune"]),
        "smt.calls": len(smt_keys),
        "smt.repeat_frac": _frac(len(smt_keys) - len(set(smt_keys)),
                                 len(smt_keys)),
        "runner.self_s": self_s["runner.batch"],
        "runner.compute_s": compute_s,
        "runner.overhead_s": total_s["runner.batch"]
        - compute_s / max(1, workers),
        "runner.pool_batches": reg("runner.pool_batches"),
        "runner.pool_workers": workers,
        "runner.queue_wait_s": reg("runner.queue_wait_ns", "sum") / 1e9,
        "runner.simulated": reg("runner.simulated"),
        "runner.deduped": reg("runner.deduped"),
        "resultcache.key_calls": calls["resultcache.key"],
        "resultcache.lookups": lookups,
        "resultcache.hit_ratio": _frac(reg("result_cache.hits"), lookups),
        "resultcache.bytes_written": reg("result_cache.bytes_written"),
        "dse.points": points,
        "experiments.self_s": sum(self_s[n] for n in TOTAL_TIME
                                  if n.startswith("experiments.")),
        "obs.traced_wall_s": wall_s,
        "obs.coverage": _frac(parent_self, wall_s),
        "obs.worker_coverage": _frac(worker_self, worker_busy),
    })
    return out
