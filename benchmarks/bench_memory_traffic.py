"""Memory-hierarchy traffic tracking: modeled DRAM bytes/s per model.

Not a paper artifact — this benchmark freezes the memory subsystem's
whole-network outputs so the perf trajectory (``BENCH_*.json`` via
pytest-benchmark ``extra_info``) tracks both the memory profile's own
speed (every layer of ``run_model`` is profiled; the tile-timeline
walker runs only when ``overlapped_cycles`` is read, which this
benchmark does not) and the modeled numbers:

- ``dram_gb_per_s`` — total modeled DRAM traffic over the modeled
  runtime (the sustained channel load the design point implies),
- ``memory_bound_fraction`` — share of layers whose honest operand-fill
  time exceeds compute (profile-level, independent of the enforced cap),
- per-operand-class byte totals (weights / activations / DBB metadata /
  outputs; output-stationary accumulation spills no partial sums).
"""

import pytest

from repro.accel import S2TAAW, ZvcgSA
from repro.models import get_spec

MODELS = ("alexnet", "vgg16", "mobilenet_v1", "resnet50")
ACCELS = {"sa-zvcg": ZvcgSA, "s2ta-aw": S2TAAW}


def _traffic_stats(run):
    total = {"weights": 0, "activations": 0, "dbb_metadata": 0,
             "outputs": 0}
    bound = 0
    for r in run.layer_results:
        for key, val in r.memory.by_class().items():
            total[key] += val
        bound += r.memory.memory_bound
    return total, bound / len(run.layer_results)


@pytest.mark.parametrize("accel_key", sorted(ACCELS))
@pytest.mark.parametrize("model_name", MODELS)
def test_bench_memory_traffic(benchmark, model_name, accel_key):
    spec = get_spec(model_name)
    accel = ACCELS[accel_key]()
    run = benchmark(accel.run_model, spec)
    by_class, bound_frac = _traffic_stats(run)
    dram_bytes = sum(by_class.values())
    gb_per_s = dram_bytes / run.runtime_s / 1e9
    benchmark.extra_info["model"] = model_name
    benchmark.extra_info["accelerator"] = accel.name
    benchmark.extra_info["dram_bytes"] = dram_bytes
    benchmark.extra_info["dram_gb_per_s"] = round(gb_per_s, 3)
    benchmark.extra_info["memory_bound_fraction"] = round(bound_frac, 4)
    for key, val in by_class.items():
        benchmark.extra_info[f"dram_{key}_bytes"] = val
    # Invariants the traffic model must keep.
    assert dram_bytes > 0
    assert by_class["weights"] > 0 and by_class["activations"] > 0
    # Every event bundle carries the same bytes the profile reports.
    assert sum(r.events.dram_read_bytes + r.events.dram_write_bytes
               for r in run.layer_results) == dram_bytes
    # FC / depthwise layers sit past the fill wall at the default channel.
    streaming = [r for r in run.layer_results if r.layer.memory_bound]
    if streaming:
        assert all(r.memory_cycles > 0 for r in streaming)
        assert bound_frac > 0


def test_bench_compressed_streams_shrink_traffic(benchmark):
    """S2TA-AW's DBB-compressed streams move fewer DRAM bytes than the
    dense baseline on the same network (metadata included)."""
    spec = get_spec("alexnet")

    def _both():
        return ZvcgSA().run_model(spec), S2TAAW().run_model(spec)

    dense_run, aw_run = benchmark(_both)
    dense_bytes = sum(r.memory.total_dram_bytes
                      for r in dense_run.layer_results)
    aw_bytes = sum(r.memory.total_dram_bytes for r in aw_run.layer_results)
    benchmark.extra_info["dense_dram_bytes"] = dense_bytes
    benchmark.extra_info["aw_dram_bytes"] = aw_bytes
    benchmark.extra_info["traffic_ratio"] = round(dense_bytes / aw_bytes, 3)
    assert aw_bytes < dense_bytes
