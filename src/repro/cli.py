"""Command-line interface.

Subcommands::

    repro info        --dataset gowalla            dataset statistics
    repro plan        --epsilon 0.5 --g 4          budget allocation plan
    repro sanitize    --epsilon 0.5 --g 4 --x --y  sanitise one location
    repro sanitize    --bundle austin.npz --x --y  sample a saved bundle
    repro sanitize    ... --metrics [PATH]         + Prometheus metrics dump
    repro sanitize    ... --trace-out PATH         + span/metric JSON lines
    repro bundle      --epsilon 0.5 --g 4 --out p  write an offline bundle
    repro serve       --epsilon 0.5 --requests 200 drive the serving
                      pool with concurrent synthetic clients
    repro experiment  fig3|fig5|table2|fig6|fig8|fig10|latency|
                      ablation-budget|ablation-spanner|ablation-index|
                      ablation-prior
                      --dataset gowalla --requests 600 [--csv out.csv]
    repro bench run      --matrix smoke [--out PATH]   run a benchmark
                      matrix, persist a versioned artifact
    repro bench compare  --baseline PATH [--run PATH]  gate a run
                      against a baseline (exit 1 on regression)
    repro bench report   [--run PATH | --matrix NAME]  paper-style tables

The serve subcommand is self-driving: it starts a
:class:`~repro.serve.ServingPool` of ``--workers`` processes, spawns
client threads that submit sanitisation requests concurrently, then
prints the pool's coalescing/admission statistics (and, with
``--metrics``, the full Prometheus dump — the CI smoke step scrapes
exactly that).

The experiment subcommand prints the same tables the benchmark suite
produces, so paper figures can be regenerated without pytest.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.datasets import load_gowalla_austin, load_yelp_las_vegas
from repro.datasets.checkin import CheckInDataset
from repro.geo.point import Point
from repro.grid.regular import RegularGrid
from repro.priors.empirical import empirical_prior
from repro.core.budget.allocation import allocate_budget
from repro.core.msm import MultiStepMechanism
from repro.eval import experiments
from repro.eval.results import ResultTable, print_table
from repro.serve.server import ServerConfig

_EXPERIMENTS = {
    "fig3": experiments.run_fig3,
    "fig5": experiments.run_fig5,
    "table2": experiments.run_table2,
    "fig6": experiments.run_fig6_7,
    "fig8": experiments.run_fig8_9,
    "fig10": experiments.run_fig10_11,
    "latency": experiments.run_latency,
    "ablation-budget": experiments.run_budget_strategy_ablation,
    "ablation-spanner": experiments.run_spanner_ablation,
    "ablation-index": experiments.run_index_ablation,
    "ablation-prior": experiments.run_prior_ablation,
}


def _load_dataset(name: str, fraction: float) -> CheckInDataset:
    if name == "gowalla":
        return load_gowalla_austin(checkin_fraction=fraction)
    if name == "yelp":
        return load_yelp_las_vegas(checkin_fraction=fraction)
    raise SystemExit(f"unknown dataset {name!r}; choose gowalla or yelp")


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", default="gowalla", choices=("gowalla", "yelp"),
        help="evaluation dataset (default: gowalla)",
    )
    parser.add_argument(
        "--fraction", type=float, default=1.0,
        help="synthetic-dataset scale factor in (0, 1] (default: 1.0)",
    )


def _add_dilation_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dilation", type=float, default=None, metavar="DELTA",
        help="build the per-node LPs over a DELTA-spanner of the "
             "GeoInd constraint graph instead of all pairs: each "
             "level solves at eps/DELTA over ~linear constraints, so "
             "cold builds are faster while the guard still verifies "
             "the full guarantee at eps (default: exact, all pairs)",
    )


def _cmd_info(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset, args.fraction)
    b = dataset.bounds
    print(f"dataset      : {dataset.name}")
    print(f"check-ins    : {dataset.n_checkins}")
    print(f"users        : {dataset.n_users}")
    print(f"planar side  : {b.side:.3f} km")
    if dataset.geo_bounds is not None:
        gb = dataset.geo_bounds
        print(f"geo window   : lat [{gb.min_lat}, {gb.max_lat}] "
              f"lon [{gb.min_lon}, {gb.max_lon}]")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = allocate_budget(
        args.epsilon, args.g, args.side, rho=args.rho,
        max_height=args.max_height,
    )
    print(f"total budget : {plan.epsilon_total}")
    print(f"index height : {plan.height} (leaf granularity "
          f"{plan.leaf_granularity} x {plan.leaf_granularity})")
    for i, (budget, req) in enumerate(
        zip(plan.budgets, plan.requirements), start=1
    ):
        starved = "  STARVED" if budget < req * (1 - 1e-12) else ""
        print(f"  level {i}: eps={budget:.4f} (requirement {req:.4f}){starved}")
    return 0


def _cmd_bundle(args: argparse.Namespace) -> int:
    from repro.core.bundle import save_bundle

    dataset = _load_dataset(args.dataset, args.fraction)
    grid = RegularGrid(dataset.bounds, args.prior_granularity)
    prior = empirical_prior(grid, dataset.points(), smoothing=0.1)
    msm = MultiStepMechanism.build(
        args.epsilon, args.g, prior, rho=args.rho,
        spanner_dilation=args.dilation,
    )
    info = save_bundle(msm, args.out)
    print(f"bundle       : {info.path}")
    print(f"node LPs     : {info.n_nodes}")
    print(f"size         : {info.size_bytes / 1024:.1f} KiB")
    print(f"epsilon      : {info.epsilon}, height {info.height}")
    return 0


def _make_observability(args: argparse.Namespace):
    """An enabled handle when --metrics/--trace-out was passed, else None."""
    if args.metrics is None and args.trace_out is None:
        return None
    from repro.obs import Observability

    return Observability.collecting(trace=args.trace_out is not None)


def _write_observability(obs, args: argparse.Namespace) -> None:
    """Dump the run's telemetry to the requested destinations."""
    if obs is None:
        return
    from repro.obs.export import to_jsonl, to_prometheus

    if args.metrics is not None:
        text = to_prometheus(obs.snapshot())
        if args.metrics == "-":
            sys.stdout.write(text)
        else:
            with open(args.metrics, "w") as fh:
                fh.write(text)
            print(f"metrics  : {args.metrics}")
    if args.trace_out is not None:
        with open(args.trace_out, "w") as fh:
            fh.write(to_jsonl(obs.snapshot(), obs.spans))
        print(f"trace    : {args.trace_out}")


def _cmd_sanitize(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    x = Point(args.x, args.y)
    obs = _make_observability(args)
    if args.bundle is not None:
        from repro.core.bundle import load_bundle

        msm = load_bundle(args.bundle)
        if not msm.index.bounds.contains(x):
            raise SystemExit(
                f"location ({args.x}, {args.y}) outside the bundle domain"
            )
        if obs is not None:
            msm.engine.bind_observability(obs)
        if args.remap:
            msm.enable_remap()
        z = msm.sample(x, rng)
        print(f"actual   : ({x.x:.4f}, {x.y:.4f}) km")
        print(f"reported : ({z.x:.4f}, {z.y:.4f}) km")
        print(f"distance : {x.distance_to(z):.4f} km")
        _write_observability(obs, args)
        return 0
    if args.epsilon is None:
        raise SystemExit("--epsilon is required when no --bundle is given")
    dataset = _load_dataset(args.dataset, args.fraction)
    grid = RegularGrid(dataset.bounds, args.prior_granularity)
    prior = empirical_prior(grid, dataset.points(), smoothing=0.1)
    msm = MultiStepMechanism.build(
        args.epsilon, args.g, prior, rho=args.rho, remap=args.remap,
        spanner_dilation=args.dilation, obs=obs,
    )
    if not dataset.bounds.contains(x):
        raise SystemExit(
            f"location ({args.x}, {args.y}) outside the dataset domain "
            f"[0, {dataset.bounds.side:.2f}] km square"
        )
    z = msm.sample(x, rng)
    print(f"actual   : ({x.x:.4f}, {x.y:.4f}) km")
    print(f"reported : ({z.x:.4f}, {z.y:.4f}) km")
    print(f"distance : {x.distance_to(z):.4f} km")
    print(f"height   : {msm.height}, budgets "
          + "/".join(f"{b:.3f}" for b in msm.budgets))
    _write_observability(obs, args)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Freeze the warmed mechanism into an arena, shard users across
    ``--workers`` processes, and drive synthetic concurrent clients."""
    import threading

    from repro.exceptions import BudgetError, ServeError
    from repro.serve import ServingPool

    obs = _make_observability(args)
    if obs is None:
        from repro.obs import Observability

        obs = Observability.collecting(trace=False)
    dataset = _load_dataset(args.dataset, args.fraction)
    grid = RegularGrid(dataset.bounds, args.prior_granularity)
    prior = empirical_prior(grid, dataset.points(), smoothing=0.1)
    lifetime = (
        args.lifetime_epsilon
        if args.lifetime_epsilon is not None
        else 10.0 * args.epsilon
    )
    config = ServerConfig(
        lifetime_epsilon=lifetime,
        per_report_epsilon=args.epsilon,
        coalesce_window=args.coalesce_window,
        max_batch=args.max_batch,
    )
    pool = ServingPool.build(
        prior,
        config,
        workers=args.workers,
        arena_dir=args.arena,
        granularity=args.g,
        rho=args.rho,
        store=args.store,
        obs=obs,
        seed=args.seed,
        ledger_dir=args.ledger_dir,
        spanner_dilation=args.dilation,
    )
    points = dataset.points()
    refused = {"budget": 0, "serve": 0}
    refusal_lock = threading.Lock()

    def client(client_id: int) -> None:
        rng = np.random.default_rng(args.seed + client_id)
        user = f"user-{client_id}"
        for _ in range(args.requests // args.clients):
            x = points[int(rng.integers(len(points)))]
            try:
                pool.report(user, x)
            except BudgetError:
                with refusal_lock:
                    refused["budget"] += 1
            except ServeError:
                with refusal_lock:
                    refused["serve"] += 1

    with pool:
        print(f"workers    : {args.workers} processes, "
              f"arena {pool.arena.nbytes} bytes (zero-copy mmap)")
        if args.ledger_dir is not None:
            replay = pool.ledger_replay()
            print(f"ledger     : {args.ledger_dir} "
                  f"({len(replay.spent)} users, "
                  f"{sum(replay.spent.values()):.4f} eps replayed, "
                  f"{replay.corrupt_lines} corrupt lines skipped)")
        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(args.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        pool.collect_metrics()
        stats = pool.stats()
    print(f"clients    : {args.clients}")
    print(f"requests   : {stats.requests} admitted, "
          f"{stats.completed} completed")
    print(f"refused    : {refused['budget']} budget, "
          f"{refused['serve']} serve")
    print(f"batches    : {stats.batches} "
          f"({stats.coalesced} requests coalesced, "
          f"largest {stats.max_batch_points})")
    print(f"sessions   : {stats.sessions} across "
          f"{args.workers} shards, {stats.respawns} respawns")
    _write_observability(obs, args)
    return 0


def _default_run_path(matrix_name: str) -> str:
    return f"benchmarks/runs/{matrix_name}.json"


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import ROOT_SEED, get_matrix, run_matrix, save_artifact

    spec = get_matrix(args.matrix)
    seed = args.seed if args.seed is not None else ROOT_SEED
    artifact = run_matrix(spec, root_seed=seed, progress=print)
    out = args.out or _default_run_path(spec.name)
    path = save_artifact(artifact, out)
    print(f"cells    : {len(artifact['cells'])}")
    print(f"artifact : {path}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import (
        compare_artifacts,
        format_comparison,
        load_artifact,
        parse_tolerance_overrides,
    )
    from repro.bench.artifact import ArtifactError

    try:
        baseline = load_artifact(args.baseline)
    except ArtifactError as exc:
        if args.allow_missing_baseline:
            print(f"missing-baseline: {exc}")
            print("verdict: PASS (no baseline committed yet)")
            return 0
        raise SystemExit(f"missing-baseline: {exc}")
    run_path = args.run or _default_run_path(str(baseline.get("matrix")))
    run = load_artifact(run_path)
    tolerances = parse_tolerance_overrides(args.tolerance)
    comparison = compare_artifacts(run, baseline, tolerances)
    print(format_comparison(comparison))
    return 0 if comparison.ok else 1


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from repro.bench import format_report, load_artifact

    run_path = args.run or _default_run_path(args.matrix)
    artifact = load_artifact(run_path)
    print(format_report(artifact))
    return 0


def _cmd_bench_load(args: argparse.Namespace) -> int:
    from repro.bench import ROOT_SEED, save_artifact, wrap_legacy
    from repro.bench.load import LoadSpec, run_load_benchmark

    seed = args.seed if args.seed is not None else ROOT_SEED
    spec = LoadSpec(
        workers=args.workers,
        total_requests=args.requests,
        n_users=args.users,
        zipf_s=args.zipf_s,
        ledger=args.ledger,
        seed=seed,
    )
    results = run_load_benchmark(spec, progress=print)
    path = save_artifact(
        wrap_legacy("pool-load", results, seed), args.out
    )
    saturation = results["saturation"]
    open_loop = results["open_loop"]
    print(f"workers    : {results['workers']} "
          f"(host cpu_count {results['cpu_count']}, "
          f"gate {results['expected_gate']})")
    print(f"saturation : {saturation['req_per_s']:.0f} req/s "
          f"({saturation['requests']} requests in "
          f"{saturation['elapsed_seconds']:.2f}s)")
    print(f"open loop  : p50 {open_loop['p50_ms']:.2f} ms, "
          f"p95 {open_loop['p95_ms']:.2f} ms, "
          f"p99 {open_loop['p99_ms']:.2f} ms "
          f"at {open_loop['target_req_per_s']:.0f} req/s")
    print(f"artifact   : {path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset, args.fraction)
    config = experiments.ExperimentConfig(
        n_requests=args.requests, seed=args.seed
    )
    run = _EXPERIMENTS[args.name]
    table: ResultTable = run(dataset, config=config)
    print_table(table)
    if args.csv:
        table.to_csv(args.csv)
        print(f"written: {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Geo-indistinguishability mechanisms (EDBT 2019 MSM)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="dataset statistics")
    _add_dataset_args(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_plan = sub.add_parser("plan", help="budget allocation plan")
    p_plan.add_argument("--epsilon", type=float, required=True)
    p_plan.add_argument("--g", type=int, default=4)
    p_plan.add_argument("--side", type=float, default=20.0,
                        help="domain side length in km (default 20)")
    p_plan.add_argument("--rho", type=float, default=0.8)
    p_plan.add_argument("--max-height", type=int, default=16)
    p_plan.set_defaults(func=_cmd_plan)

    p_san = sub.add_parser("sanitize", help="sanitise one location")
    _add_dataset_args(p_san)
    p_san.add_argument("--epsilon", type=float, default=None,
                       help="privacy budget (required unless --bundle)")
    p_san.add_argument("--g", type=int, default=4)
    p_san.add_argument("--rho", type=float, default=0.8)
    p_san.add_argument("--prior-granularity", type=int, default=16)
    p_san.add_argument("--bundle", default=None,
                       help="sample from a precomputed bundle instead")
    p_san.add_argument("--x", type=float, required=True,
                       help="planar x in km")
    p_san.add_argument("--y", type=float, required=True,
                       help="planar y in km")
    p_san.add_argument("--seed", type=int, default=0)
    p_san.add_argument("--remap", action="store_true",
                       help="apply the optimal Bayesian remap to the output "
                            "(post-processing; never weakens the guarantee)")
    _add_dilation_arg(p_san)
    p_san.add_argument("--metrics", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="collect runtime metrics and write them in "
                            "Prometheus text format to PATH (stdout if no "
                            "PATH is given)")
    p_san.add_argument("--trace-out", default=None, metavar="PATH",
                       help="record the walk's span tree and dump spans + "
                            "metrics as JSON lines to PATH")
    p_san.set_defaults(func=_cmd_sanitize)

    p_bundle = sub.add_parser(
        "bundle", help="precompute an MSM and write an offline bundle"
    )
    _add_dataset_args(p_bundle)
    p_bundle.add_argument("--epsilon", type=float, required=True)
    p_bundle.add_argument("--g", type=int, default=4)
    p_bundle.add_argument("--rho", type=float, default=0.8)
    p_bundle.add_argument("--prior-granularity", type=int, default=16)
    p_bundle.add_argument("--out", required=True, help="output .npz path")
    _add_dilation_arg(p_bundle)
    p_bundle.set_defaults(func=_cmd_bundle)

    p_serve = sub.add_parser(
        "serve",
        help="drive the serving pool with synthetic concurrent clients",
    )
    _add_dataset_args(p_serve)
    p_serve.add_argument("--epsilon", type=float, required=True,
                         help="per-report privacy budget")
    p_serve.add_argument("--lifetime-epsilon", type=float, default=None,
                         help="per-user lifetime budget "
                              "(default: 10x per-report)")
    p_serve.add_argument("--g", type=int, default=4)
    p_serve.add_argument("--rho", type=float, default=0.8)
    p_serve.add_argument("--prior-granularity", type=int, default=16)
    p_serve.add_argument("--requests", type=int, default=200,
                         help="total requests across all clients")
    p_serve.add_argument("--clients", type=int, default=8,
                         help="concurrent client threads")
    p_serve.add_argument("--coalesce-window", type=float,
                         default=ServerConfig.coalesce_window,
                         help="extra seconds a micro-batch waits for more "
                              "requests (default: none; whatever is "
                              "queued dispatches at once)")
    p_serve.add_argument("--max-batch", type=int, default=512)
    p_serve.add_argument("--store", default=None, metavar="DIR",
                         help="persistent mechanism store directory "
                              "(warm-start across runs)")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--workers", type=int, default=1,
                         help="worker processes mapping one zero-copy "
                              "arena, users sharded by stable hash "
                              "(default 1)")
    p_serve.add_argument("--arena", default=None, metavar="DIR",
                         help="freeze the compiled mechanism arena here "
                              "(default: a run-scoped temp directory)")
    p_serve.add_argument("--ledger-dir", default=None, metavar="DIR",
                         help="per-shard durable budget journals, replayed "
                              "on start and on worker respawn so spent "
                              "budgets survive crashes and restarts")
    p_serve.add_argument("--metrics", nargs="?", const="-", default=None,
                         metavar="PATH",
                         help="write the full Prometheus metrics dump to "
                              "PATH (stdout if no PATH is given)")
    p_serve.add_argument("--trace-out", default=None, metavar="PATH",
                         help="dump spans + metrics as JSON lines to PATH")
    _add_dilation_arg(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark-matrix harness: run / compare / report",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)

    p_brun = bench_sub.add_parser(
        "run", help="run a named benchmark matrix and persist the artifact"
    )
    p_brun.add_argument("--matrix", default="smoke",
                        help="matrix name (default: smoke)")
    p_brun.add_argument("--out", default=None, metavar="PATH",
                        help="artifact path "
                             "(default benchmarks/runs/<matrix>.json)")
    p_brun.add_argument("--seed", type=int, default=None)
    p_brun.set_defaults(func=_cmd_bench_run)

    p_bcmp = bench_sub.add_parser(
        "compare",
        help="gate a run against a baseline; exit 1 on regression",
    )
    p_bcmp.add_argument("--baseline", required=True, metavar="PATH",
                        help="committed baseline artifact")
    p_bcmp.add_argument("--run", default=None, metavar="PATH",
                        help="run artifact (default: the baseline matrix's "
                             "benchmarks/runs/<matrix>.json)")
    p_bcmp.add_argument("--tolerance", action="append", default=None,
                        metavar="METRIC=REL_TOL",
                        help="override one metric's relative tolerance "
                             "band (repeatable), e.g. "
                             "throughput_pts_per_s=0.75")
    p_bcmp.add_argument("--allow-missing-baseline", action="store_true",
                        help="pass (exit 0) when the baseline file does "
                             "not exist yet instead of failing")
    p_bcmp.set_defaults(func=_cmd_bench_compare)

    p_brep = bench_sub.add_parser(
        "report", help="render a run artifact as paper-style tables"
    )
    p_brep.add_argument("--run", default=None, metavar="PATH",
                        help="run artifact (default "
                             "benchmarks/runs/<matrix>.json)")
    p_brep.add_argument("--matrix", default="smoke",
                        help="matrix name used for the default --run path")
    p_brep.set_defaults(func=_cmd_bench_report)

    p_bload = bench_sub.add_parser(
        "load",
        help="open-loop load benchmark against the multi-worker pool",
    )
    p_bload.add_argument("--workers", type=int, default=2)
    p_bload.add_argument("--requests", type=int, default=1000,
                         help="total open-loop requests (default 1000; "
                              "the committed BENCH_load.json uses "
                              "benchmarks/bench_load.py at full size)")
    p_bload.add_argument("--users", type=int, default=200,
                         help="distinct users behind the Zipf arrivals")
    p_bload.add_argument("--zipf-s", type=float, default=1.1,
                         help="Zipf skew of user arrivals")
    p_bload.add_argument("--ledger", action="store_true",
                         help="attach per-shard durable budget journals "
                              "(measures the fsync price)")
    p_bload.add_argument("--out", default="BENCH_load.json",
                         metavar="PATH",
                         help="artifact path (default BENCH_load.json)")
    p_bload.add_argument("--seed", type=int, default=None)
    p_bload.set_defaults(func=_cmd_bench_load)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("name", choices=sorted(_EXPERIMENTS))
    _add_dataset_args(p_exp)
    p_exp.add_argument("--requests", type=int, default=600)
    p_exp.add_argument("--seed", type=int, default=42)
    p_exp.add_argument("--csv", default=None, help="also write CSV here")
    p_exp.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
