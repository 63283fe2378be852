"""Quickstart: the simulation service in 2 minutes, fully in-process.

Boots `repro serve` on an ephemeral port, then walks the client side:

1. submit a functional AlexNet job over HTTP and wait for it;
2. submit the identical request again — it dedupes, no re-simulation;
3. verify the served result is bit-equal to a direct in-process run;
4. warm the scheduler with a batch of analytic design points;
5. read the queue listing and the service metrics back.

Run:  PYTHONPATH=src python examples/serve_quickstart.py
"""

import tempfile

from repro.serve import (
    ServeService,
    http_json,
    parse_request,
    request_tasks,
    result_payload,
    submit_job,
    wait_for_job,
)


REQUEST = {"model": "alexnet", "accelerator": "s2ta-aw",
           "tier": "functional", "seed": 0}


def main() -> None:
    db = tempfile.mktemp(suffix=".sqlite3", prefix="repro-serve-qs-")
    with ServeService(db, port=0, workers=1,
                      result_cache=None) as service:
        print(f"service up on {service.base_url} (db={db})")

        # 1. submit and wait ------------------------------------------ #
        admitted = submit_job(service.base_url, REQUEST)
        print(f"\nsubmitted job {admitted['id']} "
              f"(deduped={admitted['deduped']})")
        job = wait_for_job(service.base_url, admitted["id"])
        result = job["result"]
        print(f"{result['model']} on {result['accelerator']}: "
              f"{result['total_cycles']:,} cycles, "
              f"{result['energy_uj']:,.1f} uJ over "
              f"{len(result['layers'])} layers")

        # 2. the duplicate dedupes ------------------------------------ #
        dup = submit_job(service.base_url, REQUEST)
        assert dup["deduped"] and dup["id"] == admitted["id"]
        print(f"duplicate submission deduped onto job {dup['id']} "
              f"(state {dup['state']} — served from the queue)")

        # 3. bit-equal to the direct in-process run ------------------- #
        accel, spec, _ = request_tasks(parse_request(REQUEST))
        direct = result_payload(accel.run_model_functional(
            spec, conv_only=True, seed=0))
        assert job["result"] == direct
        print("served result is bit-equal to run_model_functional")

        # 4. a batch of analytic design points ------------------------ #
        ids = [submit_job(service.base_url,
                          {"model": "lenet5", "accelerator": accel_key,
                           "tier": "analytic"})["id"]
               for accel_key in ("sa", "sa-zvcg", "s2ta-aw", "sparten")]
        service.wait_idle(timeout_s=120)
        print(f"\nanalytic sweep done ({len(ids)} design points):")
        for job_id in ids:
            _, doc = http_json("GET",
                               f"{service.base_url}/jobs/{job_id}")
            res = doc["result"]
            print(f"  {res['accelerator']:<10} "
                  f"{res['total_cycles']:>12,} cycles "
                  f"{res['energy_uj']:>10,.1f} uJ")

        # 5. queue + metrics ------------------------------------------ #
        _, health = http_json("GET", f"{service.base_url}/healthz")
        _, metrics = http_json("GET", f"{service.base_url}/metrics")
        served = metrics["metrics"]["serve.jobs_completed"]["value"]
        print(f"\nqueue counts: {health['counts']}")
        print(f"metrics: {served:.0f} jobs completed, "
              f"{metrics['metrics']['serve.dedupe_hits']['value']:.0f} "
              f"dedupe hit(s)")


if __name__ == "__main__":
    main()
