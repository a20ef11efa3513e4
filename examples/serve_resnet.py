"""Compile once, serve many: the TASD inference runtime quickstart.

A sparse ResNet-18's weights are decomposed and compressed into structured
N:M operands exactly once, at plan-build time; every request after that
runs only the structured sparse GEMMs, here through the BLAS-backed
``dense-emulation`` kernel backend (the bit-exact ``einsum-gather``
reference is the default), and serving runs through one in-process
executor that binds the compiled plan to the model.

The compiled plan also *persists*: it is saved to a digest-keyed ``.npz``
artifact and reloaded as a warm restart would — no re-decomposition,
identical backend choices — which is how a production server
skips the compile cost after a process restart.  And it *shares*: the
final section serves the same plan through a pool of worker processes
forked from this one, which inherit the compiled plan and scale past the
GIL with bit-identical outputs.

The runtime is also *observable while it serves* (section 6) and
*fault-tolerant* (section 7 kills a live worker and watches the
supervisor respawn it with zero client-visible failures): the engine
records latency / queue-wait / batch-size histograms and one record per
request, with its span timeline, as it runs, and ``engine.serve_metrics(port=...)`` exposes them
over HTTP — Prometheus ``/metrics``, ``/metrics.json``, ``/healthz``, and
a human-readable ``/statusz`` — so you can watch a live server instead of
waiting for a post-mortem ``report()``.

Finally it is *operable with zero downtime* (section 8): a hot
``swap_plan`` forks a candidate pool on a new compiled artifact, canaries
it while the live pool serves, and switches over only if it passes (a
corrupt candidate is rejected typed-ly with the old plan still
serving), and ``drain`` finishes every admitted request before
stopping — the CLI maps SIGHUP and SIGTERM to the same operations.

Run:  python examples/serve_resnet.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import TASDConfig
from repro.nn.models.resnet import resnet18
from repro.pruning.magnitude import global_magnitude_prune
from repro.pruning.targets import gemm_layers
from repro.runtime import (
    PlanExecutor,
    ProcessWorkerPool,
    ServingEngine,
    compile_plan,
    load_plan,
)
from repro.tasder.transform import TASDTransform

# ---------------------------------------------------------------------------
# 1. A sparse model and its TASD transform (here: uniform 2:4 weights; in
#    production this comes from Tasder.optimize_weights(...).transform).
# ---------------------------------------------------------------------------
model = resnet18(num_classes=10, base_width=16)
global_magnitude_prune(model, sparsity=0.6)
transform = TASDTransform(
    weight_configs={name: TASDConfig.parse("2:4") for name, _ in gemm_layers(model)}
)

# ---------------------------------------------------------------------------
# 2. Compile: weights decompose + compress exactly once, at build time,
#    with every compiled layer on the dense-emulation GEMM backend
#    (visible in the summary).  Tasder.compile(result, backend=...) does
#    the same from a search result.
# ---------------------------------------------------------------------------
plan = compile_plan(model, transform, backend="dense-emulation")
print(plan.summary(), "\n")

# ---------------------------------------------------------------------------
# 3. Persist + warm-restart: save the compiled artifact (operands, gather
#    tables, backend choices, keyed by weight digests) and reload it the
#    way a restarted server would — faster than a full recompile, with the
#    per-layer kernel choices preserved.
# ---------------------------------------------------------------------------
fresh_choices = plan.backend_choices()
with tempfile.TemporaryDirectory() as tmpdir:
    artifact = Path(tmpdir) / "resnet18_plan.npz"
    plan.save(artifact)
    plan = load_plan(artifact, model)
    print(f"plan reloaded from {artifact} in {plan.build_time * 1e3:.1f} ms\n")
assert plan.backend_choices() == fresh_choices  # choices survived the restart

# ---------------------------------------------------------------------------
# 4. Serve in-process: the engine micro-batches queued requests and runs
#    each batch through the PlanExecutor, which installs the compiled plan
#    on the model (the CLI's `serve --workers 1`).
# ---------------------------------------------------------------------------
rng = np.random.default_rng(0)
with PlanExecutor(model, plan) as executor:
    with ServingEngine(executor, max_batch=4, batch_window=0.002) as engine:
        futures = [engine.submit(rng.normal(size=(1, 3, 8, 8))) for _ in range(16)]
        outputs = [f.result(timeout=120.0) for f in futures]
    print(engine.report().summary(), "\n")
    print(executor.stats().table())

assert all(out.shape == (1, 10) for out in outputs)

# ---------------------------------------------------------------------------
# 5. Serve past the GIL: a *process* pool.  Each worker is forked from
#    this process and inherits the model and the compiled plan (compressed
#    terms, gather tables, dense weights) copy-on-write — nothing is
#    copied or pickled — installs the plan on its copy of the model, and
#    serves with no GIL in common.  Outputs are bit-identical to the
#    in-process PlanExecutor; per-worker counters merge into one stats()
#    view.  This is the compile-once / serve-everywhere step a production
#    deployment takes after `compile --backend dense-emulation --save-plan
#    plan.npz`:
#
#        python -m repro.cli serve --plan plan.npz --workers 4
#
#    Guarded so importing this script never starts worker processes.
# ---------------------------------------------------------------------------
if __name__ == "__main__":
    inputs = [rng.normal(size=(1, 3, 8, 8)) for _ in range(16)]
    with PlanExecutor(model, plan) as executor:
        local_outputs = executor.run_many(inputs)
    with ProcessWorkerPool(model, plan, workers=2) as pool:
        process_outputs = pool.run_many(inputs)
        print("\nprocess pool:", pool.stats().table().splitlines()[-1])
    for a, b in zip(local_outputs, process_outputs):
        np.testing.assert_array_equal(b, a)  # bit-identical across substrates
    print("process-pool outputs bit-identical to PlanExecutor outputs")

    # -----------------------------------------------------------------------
    # 6. Watch it live: serve with the metrics endpoint up and scrape your
    #    own /metrics mid-flight.  Everything the runtime counts is there —
    #    request-latency histograms (the same fixed log-spaced buckets on
    #    every worker, so process workers' histograms merged in exactly),
    #    per-layer GEMM latency by kernel backend, and a liveness gauge per
    #    pool worker.  Point a real Prometheus at
    #    the same URL, or open /statusz in a browser for the recent-request
    #    table.  (`python -m repro.cli serve --metrics-port 9100` is
    #    the one-line version of this section.)
    # -----------------------------------------------------------------------
    import json
    import urllib.request

    with ProcessWorkerPool(model, plan, workers=2) as pool:
        with ServingEngine(pool, max_batch=4, batch_window=0.002, workers=2) as engine:
            with engine.serve_metrics(port=0) as server:  # port=0: ephemeral
                print(f"\nmetrics live at {server.url}/metrics")
                futures = [engine.submit(x) for x in inputs]
                for f in futures:
                    f.result(timeout=120.0)
                health = json.load(urllib.request.urlopen(server.url + "/healthz"))
                scrape = urllib.request.urlopen(server.url + "/metrics").read().decode()
    print(f"healthz: {health}")
    print("scraped mid-flight:")
    for line in scrape.splitlines():
        if line.startswith(("tasd_serve_requests_total", "tasd_worker_alive")) or (
            line.startswith("tasd_serve_request_latency_seconds_bucket") and "+Inf" in line
        ):
            print(f"  {line}")
    report = engine.report()
    print(f"report agrees: {report.count} requests, "
          f"p50 {report.p50 * 1e3:.1f} ms / p99 {report.p99 * 1e3:.1f} ms")

    # -----------------------------------------------------------------------
    # 7. Surviving crashes: kill a worker live and watch nothing break.
    #    The process pool always supervises its workers — a SIGKILLed
    #    worker is detected (pipe error mid-request, health ping when
    #    idle), retired, and respawned, forked again with the committed
    #    plan; the engine retries the batch that was in flight, so the
    #    client just sees its future resolve.  `worker_respawns` ticks in
    #    /metrics, and /healthz leaves "ok" only for "degraded" — still
    #    serving, via respawn-in-progress or the in-process fallback —
    #    while the engine runs ("dead", 503, means it stopped).  Try it
    #    against a real server:
    #
    #        python -m repro.cli serve --workers 4 \
    #            --metrics-port 9100 --requests 500 &
    #        kill -9 <a worker pid>; curl -s localhost:9100/metrics | \
    #            grep tasd_worker_respawns_total
    # -----------------------------------------------------------------------
    import os
    import signal
    import time

    pool = ProcessWorkerPool(model, plan, workers=2, respawn_backoff=0.01,
                             health_interval=0.05)
    with pool:
        with ServingEngine(pool, max_batch=4, workers=2) as engine:
            baseline = engine.infer(inputs[0], timeout=120.0)
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)  # the OOM killer, simulated
            survivor = engine.infer(inputs[0], timeout=120.0)  # retried if hit
            np.testing.assert_array_equal(survivor, baseline)
            deadline = time.perf_counter() + 30.0
            # Wait for the full cycle: corpse retired AND replacement up.
            while time.perf_counter() < deadline and not (
                pool.respawns >= 1 and len(pool.worker_pids()) == 2
            ):
                time.sleep(0.05)
            snap = engine.metrics_snapshot()
            respawns = snap["tasd_worker_respawns_total"]["series"][0]["value"]
            print(f"\nkilled worker pid {victim}: output unchanged, pool back to "
                  f"{len(pool.worker_pids())}/2 workers, "
                  f"worker_respawns_total {int(respawns)}")

    # -----------------------------------------------------------------------
    # 8. Rolling upgrades and drain: change the plan or shut down — both
    #    without dropping a request.
    #
    #    `engine.swap_plan(plan_or_path)` is a blue/green swap: it forks
    #    a whole candidate pool on the new compiled artifact next to the
    #    live one, runs a *canary* batch through it (outputs must
    #    allclose the live plan's), and only then switches the engine
    #    onto it; the old pool finishes its in-flight requests and
    #    closes.  No pool ever holds two plans.  A candidate that
    #    computes the wrong function — wrong weights (fingerprint gate),
    #    corrupt arithmetic, a worker that cannot start — raises a typed
    #    `SwapRejected`, the candidate closes, and the old plan never
    #    stops serving.  `engine.drain()` closes the admission door (`/healthz`
    #    reports "draining", late submits get `QueueFull`), finishes
    #    everything already accepted, then stops.
    #    Against a real server the CLI wires the same operations to
    #    signals — SIGHUP hot-reloads `--plan`, SIGTERM drains and exits
    #    0:
    #
    #        python -m repro.cli serve --plan plan.npz \
    #            --workers 4 --requests 500 &
    #        kill -HUP %1   # hot-swap to the (updated) plan.npz artifact
    #        kill -TERM %1  # drain: finish admitted work, exit 0
    # -----------------------------------------------------------------------
    from repro.runtime import SwapRejected, skewed_plan

    # The candidate: a freshly re-compiled artifact carrying the live
    # plan's kernel choices — same function, same kernels, so the
    # upgrade must be bit-exact.  (A candidate with *different* backend
    # choices still canaries clean, just at allclose rather than ulp.)
    candidate = compile_plan(model, transform)
    for name, choice in plan.backend_choices().items():
        candidate.layers[name].backend = choice
    pool = ProcessWorkerPool(model, plan, workers=2, respawn_backoff=0.01,
                             health_interval=0.05)
    with pool:
        engine = ServingEngine(pool, max_batch=4, workers=2)
        engine.start()
        before = engine.infer(inputs[0], timeout=120.0)
        info = engine.swap_plan(candidate, canary=inputs[0])
        after = engine.infer(inputs[0], timeout=120.0)
        np.testing.assert_array_equal(after, before)  # upgrade invisible
        print(f"\nhot swap: {info['swapped_workers']} workers forked, "
              "served outputs bit-identical across the upgrade")

        try:  # a corrupt artifact dies at the canary, serving never blinks
            engine.swap_plan(skewed_plan(candidate), canary=inputs[0])
        except SwapRejected as exc:
            print(f"corrupt candidate rejected: {exc.reason.split(';')[0]}")

        futures = [engine.submit(x) for x in inputs]
        engine.drain(timeout=60.0)  # door closed, admitted work finished
        assert all(f.done() for f in futures) and engine.queue_depth == 0
        print("drained: every admitted request answered, queue empty")

