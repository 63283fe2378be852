"""Tests for the SA-SMT staging-FIFO queueing simulator."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.accel.smt import SMT_STREAM_LENGTH, SmtSA, _grid_key, _point_seed
from repro.arch.events import EventCounts
from repro.arch.smt import _CHUNK, SMTArrayModel, _binomial_into
from repro.core.reference import naive_smt_simulate
from repro.models import get_spec


def _rng():
    return np.random.default_rng(7)


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(ValueError):
            SMTArrayModel(threads=0)
        with pytest.raises(ValueError):
            SMTArrayModel(fifo_depth=0)
        with pytest.raises(ValueError):
            SMTArrayModel(pes=0)
        with pytest.raises(ValueError):
            SMTArrayModel(skew=-1)

    @pytest.mark.parametrize("name, value", [
        ("threads", 2.5), ("fifo_depth", 2.5), ("pes", True),
        ("skew", 1.0), ("threads", np.bool_(True)), ("pes", "48"),
    ])
    def test_non_integer_params(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SMTArrayModel(**{name: value})

    def test_numpy_integer_params(self):
        model = SMTArrayModel(threads=np.int64(2), fifo_depth=np.uint8(2),
                              pes=np.int32(16), skew=np.int16(94))
        assert model.simulate(0.5, 0.5, 64, rng=_rng()) \
            == SMTArrayModel(pes=16).simulate(0.5, 0.5, 64, rng=_rng())

    def test_bad_densities(self):
        model = SMTArrayModel()
        with pytest.raises(ValueError):
            model.simulate(1.5, 0.5)
        with pytest.raises(ValueError):
            model.simulate(0.5, -0.1)
        with pytest.raises(ValueError):
            model.simulate(0.5, 0.5, stream_length=0)


class TestPaperCalibration:
    """Fig. 3: ~1.6x (T2Q2) and ~1.8x (T2Q4) at 50%/50% sparsity."""

    def test_t2q2_speedup(self):
        model = SMTArrayModel(threads=2, fifo_depth=2)
        speedup = model.speedup(0.5, 0.5, 1152, rng=_rng())
        assert 1.45 <= speedup <= 1.75

    def test_t2q4_speedup(self):
        model = SMTArrayModel(threads=2, fifo_depth=4)
        speedup = model.speedup(0.5, 0.5, 1152, rng=_rng())
        assert 1.75 <= speedup <= 2.0

    def test_deeper_fifo_helps(self):
        q2 = SMTArrayModel(fifo_depth=2).speedup(0.5, 0.5, 1152, rng=_rng())
        q4 = SMTArrayModel(fifo_depth=4).speedup(0.5, 0.5, 1152, rng=_rng())
        assert q4 > q2


class TestQueueingBehaviour:
    def test_dense_streams_no_speedup(self):
        # Fully dense operands: every slot needs the MAC, so T2 degrades
        # to ~1x (the FIFO is always the bottleneck).
        model = SMTArrayModel(threads=2, fifo_depth=2)
        result = model.simulate(1.0, 1.0, 512, rng=_rng())
        assert result.speedup <= 1.1

    def test_very_sparse_saturates_at_t(self):
        model = SMTArrayModel(threads=2, fifo_depth=4)
        result = model.simulate(0.1, 0.1, 2048, rng=_rng())
        assert result.speedup == pytest.approx(2.0, abs=0.15)

    def test_speedup_monotone_in_sparsity(self):
        model = SMTArrayModel(threads=2, fifo_depth=2)
        speedups = [
            model.speedup(d, d, 1024, rng=_rng())
            for d in (0.9, 0.7, 0.5, 0.3)
        ]
        assert all(a <= b + 0.05 for a, b in zip(speedups, speedups[1:]))

    def test_fifo_events_balance(self):
        model = SMTArrayModel(threads=2, fifo_depth=2, pes=16)
        result = model.simulate(0.5, 0.5, 256, rng=_rng())
        assert result.events.fifo_push_ops == result.events.fifo_pop_ops
        assert result.events.fifo_push_ops == result.events.mac_ops

    def test_stall_cycles_counted(self):
        model = SMTArrayModel(threads=2, fifo_depth=2, pes=256)
        result = model.simulate(0.8, 0.8, 512, rng=_rng())
        assert result.stall_cycles > 0
        assert result.cycles > 512

    def test_utilization_bounded(self):
        model = SMTArrayModel()
        result = model.simulate(0.5, 0.5, 512, rng=_rng())
        assert 0.0 < result.mac_utilization <= 1.0

    def test_termination_guard(self):
        # Even pathological parameters terminate (bounded cycle count).
        model = SMTArrayModel(threads=4, fifo_depth=1, pes=512)
        result = model.simulate(1.0, 1.0, 128, rng=_rng())
        assert result.cycles <= 128 * 4 * 4 + 64 + 128 + model.skew


FIG11_MODELS = ("resnet50", "vgg16", "mobilenet_v1", "alexnet")

_densities = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


def _assert_same(got, want):
    assert got.cycles == want.cycles
    assert got.stall_cycles == want.stall_cycles
    assert got.speedup == want.speedup
    assert got.mac_utilization == want.mac_utilization
    for f in fields(EventCounts):
        assert getattr(got.events, f.name) == getattr(want.events, f.name), \
            f.name


class TestBatchedEqualsReference:
    """``simulate_many`` is the one-point cycle walk, run in lockstep."""

    @given(threads=st.integers(1, 4), fifo_depth=st.integers(1, 5),
           pes=st.integers(1, 80), skew=st.integers(0, 100),
           stream_length=st.integers(1, 600),
           points=st.lists(st.tuples(_densities, _densities),
                           min_size=1, max_size=8),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_point_by_point(self, threads, fifo_depth, pes,
                                          skew, stream_length, points,
                                          seed):
        model = SMTArrayModel(threads, fifo_depth, pes, skew)
        got = model.simulate_many(
            points, stream_length,
            [np.random.default_rng(seed + i) for i in range(len(points))])
        for i, ((w, a), result) in enumerate(zip(points, got)):
            _assert_same(result, naive_smt_simulate(
                model, w, a, stream_length, np.random.default_rng(seed + i)))

    def test_max_cycles_bound(self):
        # T4Q1 at full density overflows every cycle: the stream never
        # advances and both paths stop at the hard cycle bound, next to
        # a point that finishes normally.
        model = SMTArrayModel(threads=4, fifo_depth=1, pes=8)
        got = model.simulate_many([(1.0, 1.0), (0.1, 0.1)], 100,
                                  [_rng(), _rng()])
        assert got[0].stall_cycles == 100 * 4 * 4 + 64
        for (w, a), result in zip([(1.0, 1.0), (0.1, 0.1)], got):
            _assert_same(result, naive_smt_simulate(model, w, a, 100, _rng()))

    def test_one_rng_per_point(self):
        with pytest.raises(ValueError, match="one rng per point"):
            SMTArrayModel().simulate_many([(0.5, 0.5)], 16, [])

    def test_speedup_at_matches_reference_on_fig11_keys(self):
        # Every grid key analytic Fig. 11 asks for, with the first raw
        # densities that reach it (the memo's first-asked rule).
        firsts = {}
        for name in FIG11_MODELS:
            for layer in get_spec(name).conv_layers:
                key = _grid_key(layer.w_density, layer.a_density)
                firsts.setdefault(key, (layer.w_density, layer.a_density))
        assert len(firsts) == 28
        smt = SmtSA()
        model = SMTArrayModel(threads=smt.threads,
                              fifo_depth=smt.fifo_depth)
        for key, (w, a) in firsts.items():
            want = naive_smt_simulate(
                model, w, a, SMT_STREAM_LENGTH,
                np.random.default_rng(_point_seed(key)))
            assert smt.speedup_at(w, a) == max(1.0, want.speedup), key


def _assert_batch_matches_naive(model, points, stream_length, seed=0):
    got = model.simulate_many(
        points, stream_length,
        [np.random.default_rng(seed + i) for i in range(len(points))])
    for i, ((w, a), result) in enumerate(zip(points, got)):
        _assert_same(result, naive_smt_simulate(
            model, w, a, stream_length, np.random.default_rng(seed + i)))
    return got


class TestPackedLayout:
    """The bit-parallel engine at the edges of its packing: one segment
    of whole 64-bit words per point (pes bits and a guard bit), chunks of
    ``_CHUNK`` cycles, and points leaving the packed batch."""

    @pytest.mark.parametrize("pes", [1, 7, 8, 9, 47, 48, 63, 64, 65, 80])
    def test_segment_widths(self, pes):
        model = SMTArrayModel(2, 2, pes, skew=3)
        # One point that crosses a chunk boundary, then 40 that finish
        # at many different cycles of the first two chunks.
        _assert_batch_matches_naive(model, [(0.7, 0.8)], 300, seed=pes)
        densities = np.linspace(0.0, 1.0, 40)
        _assert_batch_matches_naive(
            model, list(zip(densities, densities[::-1])), 130, seed=pes)

    def test_finish_on_chunk_boundary(self):
        # T = 1 never stalls: both points end on cycle 256, the last of
        # the first chunk.
        got = _assert_batch_matches_naive(
            SMTArrayModel(1, 1, 64, skew=0), [(0.5, 0.5), (1.0, 1.0)], 256)
        assert [r.stall_cycles for r in got] == [0, 0]
        # Seed 0 at (0.6, 0.6) consumes its 435th element on cycle 512,
        # the last of the second chunk, beside points that end before
        # and after it.
        got = _assert_batch_matches_naive(
            SMTArrayModel(2, 2, 9, skew=3),
            [(0.6, 0.6), (0.0, 0.3), (0.9, 0.95)], 435)
        assert got[0].stall_cycles + 435 == 2 * _CHUNK

    @pytest.mark.parametrize("threads, fifo_depth, pes", [
        (2, 1, 65), (4, 1, 48)])
    def test_cap_mid_chunk_beside_normal_point(self, threads, fifo_depth,
                                               pes):
        # At full density every push overflows a depth-1 FIFO, so the
        # first point stalls until the hard bound, which is not a chunk
        # multiple; the second point ends normally in the first chunk
        # and leaves the first one alone in the packed batch.
        stream_length = 40
        cap = stream_length * threads * 4 + 64
        assert cap % _CHUNK
        got = _assert_batch_matches_naive(
            SMTArrayModel(threads, fifo_depth, pes, skew=5),
            [(1.0, 1.0), (0.4, 0.3)], stream_length)
        assert got[0].stall_cycles == cap
        assert got[1].stall_cycles < cap


class _SpyGenerator(np.random.Generator):
    """A PCG64 generator that counts its ``binomial`` calls and can plant
    ``rig`` as the first uniform of every ``random`` call."""

    def __init__(self, seed, rig=None):
        super().__init__(np.random.PCG64(seed))
        self.binomial_calls = 0
        self.rig = rig

    def binomial(self, *args, **kwargs):
        self.binomial_calls += 1
        return super().binomial(*args, **kwargs)

    def random(self, *args, **kwargs):
        out = super().random(*args, **kwargs)
        if self.rig is not None and out.size:
            out.flat[0] = self.rig
        return out


def _draw(rng, trials, p, shape):
    out = np.empty(shape, dtype=np.int64)
    _binomial_into(rng, trials, p, out, np.empty(shape),
                   np.empty(shape, dtype=bool))
    return out


def _assert_same_draw(rng, trials, p, shape, seed):
    got = _draw(rng, trials, p, shape)
    want_rng = np.random.default_rng(seed)
    want = want_rng.binomial(trials, p, size=shape)
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


_probabilities = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, float(np.nextafter(0.5, 1.0)), 1e-12,
                     1.0 - 1e-12]),
    st.floats(0.0, 1.0))


class TestInversionDraw:
    """``_binomial_into`` is ``Generator.binomial``, values and state."""

    @given(trials=st.integers(1, 8), p=_probabilities,
           shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                  max_side=12),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_binomial(self, trials, p, shape, seed):
        _assert_same_draw(np.random.default_rng(seed), trials, p, shape,
                          seed)

    @pytest.mark.parametrize("trials, p", [
        (1000, 0.001), (1000, 0.999), (2, 0.3), (2, 0.7)])
    def test_rejection_falls_back_to_binomial(self, trials, p):
        # The largest double below 1 outlasts every pmf step up to the
        # bound (the Binomial(1000, 0.001) tail above 15 is ~1e-14, and
        # at T = 2 the rounded pmf sums to less than it): numpy would
        # reject and redraw, so the generator is rewound and the whole
        # chunk comes from binomial.
        rng = _SpyGenerator(11, rig=float(np.nextafter(1.0, 0.0)))
        _assert_same_draw(rng, trials, p, (9, 4), 11)
        assert rng.binomial_calls == 1

    @pytest.mark.parametrize("trials, p, inverted", [
        (100, 0.5, False), (61, 0.5, False), (3100, 0.99, False),
        (60, 0.5, True), (30, 0.999, True), (8, 0.2, True)])
    def test_btpe_parameters_fall_back_to_binomial(self, trials, p,
                                                   inverted):
        # numpy inverts while trials * min(p, 1 - p) <= 30 and samples
        # by BTPE beyond it; both sides of the line match binomial.
        rng = _SpyGenerator(3)
        _assert_same_draw(rng, trials, p, (17, 5), 3)
        assert rng.binomial_calls == (0 if inverted else 1)
