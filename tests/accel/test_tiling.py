"""On-chip residency of priced layers under the output-stationary tiling.

S2TA stages operands in double-buffered SRAM: a 512 KB weight buffer
and a 2 MB activation buffer (Sec. 6.3). Every priced layer's
:class:`~repro.arch.memory.LayerMemoryProfile` records whether its
(possibly DBB-compressed) operands fit half of each buffer, and how
often the tiling re-streams the ones that do not.
"""

from repro.accel import S2TAAW
from repro.models import get_spec
from repro.models.specs import LayerKind, LayerSpec
from repro.workloads.typical import typical_conv_layer

WB_BYTES = 512 * 1024
AB_BYTES = 2 * 1024 * 1024


def _profile(layer):
    return S2TAAW().run_layer(layer).memory


def _stored(prof):
    """Single-pass stored bytes (payload + DBB metadata) of the
    (weights, activations) of a layer whose operands stream once."""
    return (prof.weight_bytes + prof.weight_meta_bytes,
            prof.act_bytes + prof.act_meta_bytes)


class TestAnalyzeLayer:
    def test_typical_conv_fits_on_chip(self):
        prof = _profile(typical_conv_layer(0.5, 0.375))
        assert prof.weights_resident
        assert prof.acts_resident

    def test_vgg_fc6_weights_do_not_fit(self):
        prof = _profile(get_spec("vgg16").layer("fc6"))
        assert not prof.weights_resident
        # dense would be ~98 MB; even 3/8-compressed it exceeds the WB
        assert _stored(prof)[0] > WB_BYTES

    def test_compression_shrinks_footprints(self):
        dense = LayerSpec("d", LayerKind.CONV, m=1024, k=1152, n=256,
                          w_nnz=8, a_nnz=8)
        sparse = LayerSpec("s", LayerKind.CONV, m=1024, k=1152, n=256,
                           w_nnz=4, a_nnz=2)
        w_dense, a_dense = _stored(_profile(dense))
        w_sparse, a_sparse = _stored(_profile(sparse))
        # 4 of 8 values plus a one-byte positional mask per block
        assert w_sparse == w_dense * 5 // 8
        assert a_sparse < a_dense / 2

    def test_non_resident_weights_multiply_dma(self):
        """Neither operand fits, so one re-streams: the one whose
        re-streaming moves fewer bytes. On S2TA-AW's 64-row tiles that
        is the weights, once per output-row tile."""
        fc = LayerSpec("fc", LayerKind.FC, m=4096, k=25088, n=4096,
                       w_nnz=8, a_nnz=8)
        prof = _profile(fc)
        assert not prof.weights_resident and not prof.acts_resident
        assert prof.weight_bytes == fc.k * fc.n * -(-4096 // 64)
        assert prof.act_bytes == fc.m * fc.k

    def test_double_buffering_halves_capacity(self):
        # operands that fit the whole buffer but not its usable half
        layer = LayerSpec("edge", LayerKind.CONV, m=64, k=8192, n=48,
                          w_nnz=8, a_nnz=8)
        w_stored, _ = _stored(_profile(layer))
        assert WB_BYTES // 2 < w_stored <= WB_BYTES
        assert not _profile(layer).weights_resident
        wide = LayerSpec("wide", LayerKind.FC, m=64, k=24576, n=8,
                         w_nnz=8, a_nnz=8)
        _, a_stored = _stored(_profile(wide))
        assert AB_BYTES // 2 < a_stored <= AB_BYTES
        assert not _profile(wide).acts_resident


class TestAnalyzeModel:
    def test_mobilenet_mostly_resident(self):
        # The late pointwise layers (512x1024 weights) and the classifier
        # genuinely exceed half the 512 KB WB even compressed. (Depthwise
        # windows stream expanded, Sec. 8.3, so their activation streams
        # overflow the AB half.)
        run = S2TAAW().run_model(get_spec("mobilenet_v1"))
        spilled = [r.layer.name for r in run.layer_results
                   if not r.memory.weights_resident]
        assert spilled == ["pw12", "pw13", "fc"]

    def test_vgg_fc_layers_not_resident(self):
        run = S2TAAW().run_model(get_spec("vgg16"))
        assert not run.layer("fc6").memory.weights_resident
        assert sum(r.memory.total_dram_bytes for r in run.layer_results) > 0

    def test_capacities_sane(self):
        sram = S2TAAW().memory.sram
        assert sram.wb_bytes == WB_BYTES
        assert sram.ab_bytes == AB_BYTES
        assert (sram.usable_wb, sram.usable_ab) == (WB_BYTES // 2,
                                                     AB_BYTES // 2)
