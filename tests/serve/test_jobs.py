"""Request model of the simulation service (:mod:`repro.serve.jobs`).

Analytic requests evaluate their closed forms directly instead of going
through the layer runner; these tests pin that the served result is
still bit-equal to a direct ``run_model`` call, that a model without a
cycle simulator (S2TA-WA) still serves analytic requests, and that the
tier stays part of the request fingerprint.
"""

import json

import pytest

from repro.models import get_spec
from repro.serve.jobs import (
    RequestError,
    parse_request,
    request_fingerprint,
    request_tasks,
    result_payload,
    run_requests,
)

ANALYTIC = {"model": "lenet5", "accelerator": "s2ta-aw",
            "tier": "analytic"}


class TestAnalyticRequests:
    @pytest.mark.parametrize("conv_only", [True, False])
    def test_served_result_bit_equal_to_run_model(self, conv_only):
        request = parse_request(dict(ANALYTIC, conv_only=conv_only))
        (served,) = run_requests([request])
        accel, spec, _ = request_tasks(request)
        direct = result_payload(accel.run_model(spec, conv_only=conv_only))
        # Through JSON, as a client reads it back.
        assert json.loads(json.dumps(served)) == direct

    def test_s2ta_wa_fingerprints_and_runs(self):
        request = parse_request(dict(ANALYTIC, accelerator="s2ta-wa"))
        assert len(request_fingerprint(request)) == 64
        (served,) = run_requests([request])
        assert served["accelerator"] == "S2TA-WA"
        assert len(served["layers"]) == len(get_spec("lenet5").conv_layers)
        assert served["total_cycles"] > 0

    def test_functional_request_needs_a_cycle_simulator(self):
        request = parse_request(dict(ANALYTIC, accelerator="s2ta-wa",
                                     tier="functional"))
        with pytest.raises(RequestError, match="no functional simulator"):
            request_fingerprint(request)


class TestFingerprint:
    def test_tiers_never_share_fingerprints(self):
        analytic = parse_request(ANALYTIC)
        functional = parse_request(dict(ANALYTIC, tier="functional"))
        assert request_fingerprint(analytic) \
            != request_fingerprint(functional)

    def test_fingerprint_equals_memo_free_keys(self):
        """The request's one key memo never changes a layer key."""
        from repro.eval.resultcache import combine_keys, payload_key
        from repro.serve.jobs import RESULT_SCHEMA

        request = parse_request(dict(ANALYTIC, tier="functional"))
        _, _, tasks = request_tasks(request)
        keys = [payload_key(t.accel, t.layer, seed=t.seed) for t in tasks]
        extra = {"schema": RESULT_SCHEMA, "model": request.model,
                 "conv_only": request.conv_only, "tier": request.tier}
        assert request_fingerprint(request, tasks) \
            == combine_keys(keys, extra=extra)

    def test_negative_seed_rejected_at_parse(self):
        with pytest.raises(RequestError, match="seed"):
            parse_request(dict(ANALYTIC, seed=-1))

    def test_priority_does_not_change_fingerprint(self):
        assert request_fingerprint(parse_request(ANALYTIC)) \
            == request_fingerprint(parse_request(dict(ANALYTIC,
                                                      priority=9)))
