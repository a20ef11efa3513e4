"""Command-line interface: regenerate paper tables/figures, or run the runtime.

Usage::

    python -m repro.cli list                 # what can be regenerated
    python -m repro.cli fig12                # normalized EDP (Figs. 12/13)
    python -m repro.cli table2               # the TTC-VEGETA pattern menu
    python -m repro.cli fig16 --batch 64     # the GPU sweep at batch 64
    python -m repro.cli all                  # everything (trains the zoo)

    python -m repro.cli compile --config 2:4          # build an execution plan
    python -m repro.cli compile --backend dense-emulation   # BLAS-backed kernels
    python -m repro.cli serve --requests 32 --max-batch 8   # serving demo
    python -m repro.cli serve --workers 4                   # process pool, past the GIL
    python -m repro.cli serve --metrics-port 9100           # live /metrics scrape
    python -m repro.cli serve --workers 2 --max-queue 64 --request-timeout 30 \
        --max-retries 2                                     # fault-tolerance knobs
    python -m repro.cli compile --metrics-json plan_metrics.json
    python -m repro.cli lint --strict        # runtime invariant linter

Compiled plans persist across restarts: ``compile --save-plan plan.npz``
pays decomposition once and writes a digest-keyed artifact;
``compile --plan plan.npz`` / ``serve --plan plan.npz`` reload it in
milliseconds (backend choices included) and refuse models whose weights
have drifted::

    python -m repro.cli compile --backend dense-emulation --save-plan plan.npz
    python -m repro.cli serve --plan plan.npz --requests 32
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

__all__ = ["main"]


def _fig12(args: argparse.Namespace) -> str:
    from repro.experiments import fig12_edp

    result = fig12_edp.run(batch=args.batch)
    return result.edp_table() + "\n\n" + result.latency_energy_table()


def _fig15(args: argparse.Namespace) -> str:
    from repro.experiments import fig15_energy_breakdown

    return fig15_energy_breakdown.run().table()


def _fig17(args: argparse.Namespace) -> str:
    from repro.experiments import fig17_synthetic

    return fig17_synthetic.run().table()


def _fig18(args: argparse.Namespace) -> str:
    from repro.experiments import fig18_matmul_error

    return fig18_matmul_error.run().table()


def _fig19(args: argparse.Namespace) -> str:
    from repro.experiments import fig19_ablation

    return fig19_ablation.run().table()


def _fig06(args: argparse.Namespace) -> str:
    from repro.experiments import fig06_layer_sparsity

    return fig06_layer_sparsity.run().table()


def _fig14(args: argparse.Namespace) -> str:
    from repro.experiments import fig14_netwise_layerwise

    result = fig14_netwise_layerwise.run()
    return result.table("weights") + "\n\n" + result.table("activations")


def _fig16(args: argparse.Namespace) -> str:
    from repro.experiments import fig16_gpu

    return fig16_gpu.run(batch=args.batch).table()


def _fig20(args: argparse.Namespace) -> str:
    from repro.experiments import fig20_model_zoo

    return fig20_model_zoo.run().table()


def _runtime_model(args: argparse.Namespace):
    """A pruned ResNet-18 + uniform transform for the runtime commands."""
    from repro.core import TASDConfig
    from repro.nn.models.resnet import resnet18
    from repro.pruning.magnitude import global_magnitude_prune
    from repro.pruning.targets import gemm_layers
    from repro.tasder.transform import TASDTransform

    model = resnet18(num_classes=10, base_width=16)
    global_magnitude_prune(model, args.sparsity)
    config = TASDConfig.parse(args.config if args.config is not None else "2:4")
    transform = TASDTransform(
        weight_configs={name: config for name, _ in gemm_layers(model)}
    )
    return model, transform


def _check_runtime_flags(args: argparse.Namespace) -> None:
    """Reject bad flag combinations before paying the model-build cost."""
    if args.plan is not None:
        if args.backend is not None or args.config is not None:
            raise SystemExit(
                "--plan loads a persisted plan (series config and backend "
                "choices included); --backend / --config only apply when "
                "compiling"
            )
        return
    if args.backend is not None:
        from repro.runtime.backends import backend_names

        if args.backend not in backend_names():
            raise SystemExit(
                f"unknown --backend {args.backend!r}; valid backends: "
                + ", ".join(backend_names())
            )


def _plan_for(args: argparse.Namespace, model, transform):
    """Build (or load, with ``--plan``) the execution plan the command runs."""
    if args.plan is not None:
        from repro.runtime import PlanDigestError, PlanFormatError, load_plan

        try:
            return load_plan(args.plan, model)
        except FileNotFoundError:
            raise SystemExit(f"plan artifact not found: {args.plan}") from None
        except (PlanFormatError, PlanDigestError) as exc:
            raise SystemExit(f"cannot load plan {args.plan}: {exc}") from None
    from repro.runtime import DEFAULT_BACKEND, compile_plan

    return compile_plan(model, transform, backend=args.backend or DEFAULT_BACKEND)


def _save_plan_or_exit(plan, path):
    try:
        return plan.save(path)
    except OSError as exc:
        raise SystemExit(f"cannot save plan to {path}: {exc}") from None


def _compile(args: argparse.Namespace) -> str:
    _check_runtime_flags(args)
    model, transform = _runtime_model(args)
    plan = _plan_for(args, model, transform)
    lines = [plan.summary()]
    if args.save_plan is not None:
        path = _save_plan_or_exit(plan, args.save_plan)
        lines.append(f"plan saved to {path} (reload with --plan {path})")
    if args.metrics_json is not None:
        import json

        snapshot = plan.metrics_registry().snapshot()
        try:
            with open(args.metrics_json, "w") as fh:
                json.dump(snapshot, fh, indent=2, sort_keys=True)
        except OSError as exc:
            raise SystemExit(
                f"cannot write metrics to {args.metrics_json}: {exc}"
            ) from None
        lines.append(
            f"compile metrics ({len(snapshot)} families) written to {args.metrics_json}"
        )
    return "\n".join(lines)


def _install_serve_signals(flags: dict) -> "dict | None":
    """Map SIGTERM -> graceful drain and SIGHUP -> plan reload for `serve`.

    Handlers only set flags; the serving loop acts on them between future
    waits, so all engine work happens on the main thread, not inside a
    signal handler.  Returns the previous handlers for restoration, or
    None when not on the main thread (signal.signal would raise there).
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return None
    previous = {
        signal.SIGTERM: signal.signal(
            signal.SIGTERM, lambda signum, frame: flags.__setitem__("drain", True)
        )
    }
    if hasattr(signal, "SIGHUP"):
        previous[signal.SIGHUP] = signal.signal(
            signal.SIGHUP, lambda signum, frame: flags.__setitem__("swap", True)
        )
    return previous


def _restore_serve_signals(previous: "dict | None") -> None:
    import signal

    for signum, handler in (previous or {}).items():
        signal.signal(signum, handler)


def _serve(args: argparse.Namespace) -> str:
    import numpy as np

    from repro.runtime import PlanExecutor, ProcessWorkerPool, ServingEngine, SwapRejected

    _check_runtime_flags(args)
    workers = args.workers
    if workers <= 0:
        raise SystemExit(f"--workers must be positive, got {workers}")
    if workers == 1 and args.request_timeout is not None:
        raise SystemExit(
            "--request-timeout supervises process-pool workers; "
            "it needs --workers 2 or more (--workers 1 serves in-process)"
        )
    if args.max_queue is not None and args.max_queue <= 0:
        raise SystemExit(f"--max-queue must be positive, got {args.max_queue}")
    if args.max_retries < 0:
        raise SystemExit(f"--max-retries must be >= 0, got {args.max_retries}")
    if args.request_timeout is not None and args.request_timeout <= 0:
        raise SystemExit(f"--request-timeout must be positive, got {args.request_timeout}")
    model, transform = _runtime_model(args)
    plan = _plan_for(args, model, transform)
    rng = np.random.default_rng(0)
    requests = [rng.normal(size=(args.batch, 3, 8, 8)) for _ in range(args.requests)]
    if args.save_plan is not None:
        _save_plan_or_exit(plan, args.save_plan)
    lines = [plan.summary()]
    if workers == 1:
        executor_cm = PlanExecutor(model, plan)  # the degenerate one-worker pool
    else:
        executor_cm = ProcessWorkerPool(
            model,
            plan,
            workers=workers,
            request_timeout=args.request_timeout,
        )
    metrics_note = None
    with executor_cm as executor:
        with ServingEngine(
            executor,
            max_batch=args.max_batch,
            batch_window=args.window,
            workers=workers,
            max_queue=args.max_queue,
            max_retries=args.max_retries,
        ) as engine:
            server = (
                engine.serve_metrics(port=args.metrics_port)
                if args.metrics_port is not None
                else None
            )
            flags: dict = {}
            previous_handlers = _install_serve_signals(flags)
            try:
                futures = [engine.submit(x) for x in requests]
                for f in futures:
                    while True:
                        if flags.pop("swap", False):
                            if args.plan is None:
                                lines.append(
                                    "SIGHUP ignored: no --plan artifact path to reload"
                                )
                            else:
                                try:
                                    info = engine.swap_plan(args.plan)
                                    lines.append(
                                        f"SIGHUP: hot-swapped plan from {args.plan} "
                                        f"({info['swapped_workers']} workers forked)"
                                    )
                                except SwapRejected as exc:
                                    lines.append(
                                        f"SIGHUP: swap rejected, old plan kept "
                                        f"({exc.reason})"
                                    )
                        if flags.pop("drain", False):
                            drained = engine.drain(timeout=args.drain_timeout)
                            lines.append(
                                "SIGTERM: drained gracefully, queue empty"
                                if drained
                                else "SIGTERM: drain timed out with work pending"
                            )
                            break
                        try:
                            f.result(timeout=0.2)
                            break
                        except TimeoutError:
                            continue
                    if flags == {} and not engine.running:
                        break  # drained: every admitted future is resolved
                for f in futures:
                    f.result(timeout=120.0)
                if server is not None:
                    metrics_note = _scrape_own_metrics(server)
            finally:
                _restore_serve_signals(previous_handlers)
                if server is not None:
                    server.close()
        report = engine.report()
        stats = engine.stats()
    tail = [stats.table(), report.summary()]
    if metrics_note is not None:
        tail.append(metrics_note)
    return "\n\n".join(lines + tail)


def _scrape_own_metrics(server) -> str:
    """Scrape the engine's own /metrics endpoint for the serve demo output."""
    import urllib.request

    with urllib.request.urlopen(server.url + "/metrics", timeout=10.0) as resp:
        body = resp.read().decode("utf-8")
    keep = [
        line
        for line in body.splitlines()
        if line.startswith(("tasd_serve_requests_total", "tasd_worker_alive"))
        or (line.startswith("tasd_serve_request_latency_seconds") and "+Inf" in line)
    ]
    return "\n".join(
        [f"metrics endpoint served at {server.url}/metrics "
         f"({len(body.splitlines())} lines); sample:"]
        + ["  " + line for line in keep]
    )


def _table(n: int) -> Callable[[argparse.Namespace], str]:
    def runner(args: argparse.Namespace) -> str:
        from repro.experiments import tables

        return getattr(tables, f"table{n}")()

    return runner


COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], str], str]] = {
    "table1": (_table(1), "HW capability matrix"),
    "table2": (_table(2), "TTC-VEGETA-M8 pattern menu (via TASD composition)"),
    "table3": (_table(3), "evaluated HW designs"),
    "table4": (_table(4), "representative layer dimensions"),
    "fig6": (_fig06, "per-layer sparsity of the sparse ResNet-50 [trains models]"),
    "fig12": (_fig12, "normalized EDP across designs and workloads (+Fig. 13)"),
    "fig14": (_fig14, "network-wise vs layer-wise TASD [trains models]"),
    "fig15": (_fig15, "energy breakdown, TTC vs dense TC"),
    "fig16": (_fig16, "2:4 TASD-W on the modelled GPU [trains models]"),
    "fig17": (_fig17, "synthetic drop rates (Appendix A)"),
    "fig18": (_fig18, "matmul error vs approximated sparsity (Appendix A)"),
    "fig19": (_fig19, "system ablation (Appendix B)"),
    "fig20": (_fig20, "model-zoo MAC reductions [trains models]"),
}

# Runtime subcommands: not part of "all" (they demo the serving system, not
# a paper figure).
RUNTIME_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], str], str]] = {
    "compile": (_compile, "compile a TASD execution plan for a sparse ResNet-18"),
    "serve": (_serve, "micro-batched serving demo over a compiled plan"),
}

# Tooling subcommands own their full argv (their flag sets don't overlap the
# experiment flags above), so they dispatch before the experiment parser runs.
TOOL_COMMANDS: dict[str, str] = {
    "lint": "run the runtime invariant linter (same as python -m repro.lint)",
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        from repro.lint import main as lint_main

        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro", description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "experiment",
        help="one of: list, all, "
        + ", ".join(list(COMMANDS) + list(RUNTIME_COMMANDS) + list(TOOL_COMMANDS)),
    )
    parser.add_argument("--batch", type=int, default=1, help="batch size where applicable")
    parser.add_argument(
        "--config",
        default=None,
        help="TASD series for runtime commands (e.g. 2:4+1:4; default 2:4)",
    )
    parser.add_argument(
        "--sparsity", type=float, default=0.6, help="magnitude-pruning sparsity (runtime)"
    )
    parser.add_argument(
        "--requests", type=int, default=16, help="number of requests to serve (serve)"
    )
    parser.add_argument(
        "--max-batch", type=int, default=4, help="micro-batch size cap (serve)"
    )
    parser.add_argument(
        "--window", type=float, default=0.002, help="micro-batching window in seconds (serve)"
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="structured-GEMM backend for every compiled layer: einsum-gather "
        "(default, bit-exact) or dense-emulation (compile/serve)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="1 serves through one in-process executor; N > 1 serves through "
        "N forked worker processes that inherit the compiled plan (serve)",
    )
    parser.add_argument(
        "--save-plan",
        default=None,
        metavar="PATH",
        help="persist the compiled plan (operands, gather tables, "
        "backend choices) to a .npz artifact after compiling (compile/serve)",
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help="serve a live Prometheus /metrics endpoint on this port while "
        "requests run (0 picks an ephemeral port) (serve)",
    )
    parser.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="write the compiled plan's metrics snapshot (layer nnz, backend "
        "choices) as JSON (compile)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="admission bound: reject submits once N requests wait in the "
        "queue instead of growing it without bound (serve)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        metavar="S",
        help="seconds a process-pool worker may hold one dispatch before it "
        "is declared hung and retired (serve, --workers 2+)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per micro-batch after a worker crash before the batch "
        "is split to isolate a poison request (serve)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="seconds a SIGTERM-triggered graceful drain may spend "
        "finishing admitted requests before giving up (serve)",
    )
    parser.add_argument(
        "--plan",
        default=None,
        metavar="PATH",
        help="load a plan saved with --save-plan instead of recompiling; "
        "refuses artifacts whose weight digests do not match "
        "the model (compile/serve)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, (_, desc) in {**COMMANDS, **RUNTIME_COMMANDS}.items():
            print(f"{name:8s} {desc}")
        for name, desc in TOOL_COMMANDS.items():
            print(f"{name:8s} {desc}")
        return 0
    if args.experiment == "all":
        for name, (runner, _) in COMMANDS.items():
            print(f"\n================ {name} ================")
            print(runner(args))
        return 0
    dispatch = {**COMMANDS, **RUNTIME_COMMANDS}
    if args.experiment not in dispatch:
        parser.error(f"unknown experiment {args.experiment!r}; try 'list'")
    print(dispatch[args.experiment][0](args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
