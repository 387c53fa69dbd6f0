"""Command-line interface: solve cities and run quick experiments.

Installed as ``repro-gepc``::

    repro-gepc solve --city beijing --solver greedy
    repro-gepc solve --city auckland --solver gap --scale 0.5
    repro-gepc solve --city vancouver --shards 4
    repro-gepc simulate --city auckland --batch 8 --operations 40
    repro-gepc fuzz --seeds 10 --sharded
    repro-gepc compare --city beijing
    repro-gepc stats --city vancouver
    repro-gepc export --city beijing --out /tmp/beijing
    repro-gepc simulate --city auckland --scale 0.5 --operations 20
    repro-gepc simulate --city auckland --durable /tmp/auckland-state
    repro-gepc replay /tmp/beijing /tmp/workload.json
    repro-gepc fuzz --seeds 25 --operations 12
    repro-gepc fuzz --durable --seeds 10
    repro-gepc fuzz --service --seeds 10
    repro-gepc recover /tmp/auckland-state
    repro-gepc serve --root /tmp/planning-state --port 8414

Every command accepts ``--trace`` (per-phase timing/counter table on
stderr) and ``--trace-json PATH`` (machine-readable recorder snapshot);
see ``docs/observability.md``.  Setting ``REPRO_SHADOW_CHECKS=1`` runs
any command with shadow-checked mutations (every plan mutation and IEP
apply is audited against a from-scratch recompute; see
``docs/correctness.md``).
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import measure
from repro.bench.tables import format_table
from repro.check import TARGETS, FuzzConfig, maybe_shadow_checks, run_fuzz
from repro.core.constraints import check_plan
from repro.core.gepc import GAPBasedSolver, GreedySolver
from repro.core.model import InstanceStats
from repro.datasets import CITY_CONFIGS, load_instance, make_city, save_instance
from repro.obs import recording, render_text, write_json
from repro.platform import EBSNPlatform, OperationStream


def _solver_by_name(name: str, seed: int, shards: int = 1):
    if shards > 1:
        if name != "greedy":
            raise SystemExit(
                f"--shards requires the greedy solver (got {name!r}); "
                "the GAP baseline has no sharded variant"
            )
        from repro.scale import ShardedSolver

        return ShardedSolver(shards=shards, seed=seed)
    if name == "greedy":
        return GreedySolver(seed=seed)
    if name == "gap":
        return GAPBasedSolver(backend="scipy")
    raise ValueError(f"unknown solver {name!r} (choose greedy or gap)")


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = make_city(args.city, scale=args.scale)
    solver = _solver_by_name(args.solver, args.seed, shards=args.shards)
    label = solver.name if args.shards > 1 else args.solver
    solution, result = measure(label, lambda: solver.solve(instance))
    violations = check_plan(instance, solution.plan)
    print(
        format_table(
            f"GEPC on {args.city} (scale={args.scale})",
            ["solver", "utility", "time (s)", "memory (MB)", "cancelled", "violations"],
            [[
                label,
                result.utility,
                result.seconds,
                result.memory_mb,
                len(solution.cancelled),
                len(violations),
            ]],
        )
    )
    return 0 if not violations else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    instance = make_city(args.city, scale=args.scale)
    rows = []
    for name in ("gap", "greedy"):
        solver = _solver_by_name(name, args.seed)
        solution, result = measure(name, lambda s=solver: s.solve(instance))
        rows.append(
            [name, result.utility, result.seconds, result.memory_mb,
             len(solution.cancelled)]
        )
    print(
        format_table(
            f"GAP vs Greedy on {args.city} (scale={args.scale})",
            ["solver", "utility", "time (s)", "memory (MB)", "cancelled"],
            rows,
        )
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    instance = make_city(args.city, scale=args.scale)
    stats = InstanceStats.of(instance)
    print(
        format_table(
            f"Dataset stats: {args.city}",
            ["|U|", "|E|", "mean xi", "mean eta", "conflict ratio"],
            [[
                stats.n_users,
                stats.n_events,
                stats.mean_lower,
                stats.mean_upper,
                stats.conflict_ratio,
            ]],
        )
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    instance = make_city(args.city, scale=args.scale)
    path = save_instance(instance, args.out)
    print(f"wrote {instance.n_users} users / {instance.n_events} events to {path}")
    return 0


def _cmd_solve_file(args: argparse.Namespace) -> int:
    instance = load_instance(args.dataset)
    solver = _solver_by_name(args.solver, args.seed, shards=args.shards)
    label = solver.name if args.shards > 1 else args.solver
    solution, result = measure(label, lambda: solver.solve(instance))
    violations = check_plan(instance, solution.plan)
    print(
        format_table(
            f"GEPC on {args.dataset}",
            ["solver", "utility", "time (s)", "violations"],
            [[label, result.utility, result.seconds, len(violations)]],
        )
    )
    return 0 if not violations else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    instance = make_city(args.city, scale=args.scale)
    solver = _solver_by_name("greedy", args.seed, shards=args.shards)
    if args.batch > 1:
        return _simulate_batched(instance, solver, args)
    if args.durable is not None:
        from repro.platform import DurablePlatform

        platform = DurablePlatform(instance, args.durable, solver=solver)
        utility = platform.publish_plans()
        print(
            f"published: utility={utility:.1f} "
            f"(durable state in {args.durable})"
        )
    else:
        platform = EBSNPlatform(instance, solver=solver)
        utility = platform.publish_plans()
        print(f"published: utility={utility:.1f}")
    stream = OperationStream(seed=args.seed)
    for _ in range(args.operations):
        operation = next(
            iter(stream.mixed(platform.instance, platform.plan, 1))
        )
        entry = platform.submit(operation)
        print(
            f"  {type(operation).__name__:<15} dif={entry.dif:<3} "
            f"utility={entry.utility_after:.1f}"
        )
    audit = platform.audit()
    if args.durable is not None:
        platform.close()
    print(
        format_table(
            "End-of-run audit",
            ["operations", "utility", "total dif", "violations"],
            [[
                audit["operations"], audit["utility"],
                audit["total_dif"], audit["violations"],
            ]],
        )
    )
    return 0 if audit["violations"] == 0 else 1


def _simulate_batched(instance, solver, args: argparse.Namespace) -> int:
    from repro.scale import BatchedPlatform

    platform = BatchedPlatform(instance, solver=solver)
    utility = platform.publish_plans()
    print(f"published: utility={utility:.1f} (batched, batch={args.batch})")
    stream = OperationStream(seed=args.seed)
    remaining = args.operations
    while remaining > 0:
        size = min(args.batch, remaining)
        for operation in stream.mixed(platform.instance, platform.plan, size):
            platform.enqueue(operation)
        remaining -= size
        result = platform.flush()
        print(
            f"  batch: submitted={result.submitted} folded={result.folded} "
            f"applied={len(result.applied)} rejected={len(result.rejected)} "
            f"utility={result.utility:.1f}"
        )
    platform.drain()
    audit = platform.snapshot()
    stats = platform.stats()
    print(
        format_table(
            "End-of-run audit (batched)",
            ["operations", "utility", "violations", "folded", "flushes"],
            [[
                stats["applied"], audit["utility"],
                audit["violations"], stats["folded"], stats["flushes"],
            ]],
        )
    )
    return 0 if audit["violations"] == 0 else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.core.iep import IEPEngine
    from repro.core.metrics import total_utility
    from repro.platform.oplog import load_operations

    instance = load_instance(args.dataset)
    operations = load_operations(args.oplog)
    solver = _solver_by_name(args.solver, args.seed)
    plan = solver.solve(instance).plan

    engine = IEPEngine()
    total_dif = 0
    for operation in operations:
        result = engine.apply(instance, plan, operation)
        instance, plan = result.instance, result.plan
        total_dif += result.dif
    violations = check_plan(instance, plan)
    print(
        format_table(
            f"Replay: {len(operations)} operations over {args.dataset}",
            ["operations", "final utility", "total dif", "violations"],
            [[
                len(operations),
                total_utility(instance, plan),
                total_dif,
                len(violations),
            ]],
        )
    )
    return 0 if not violations else 1


def fuzz_run_of(args: argparse.Namespace) -> tuple[FuzzConfig, str]:
    """The fuzz config and target ``args`` select: each ``TARGETS`` key
    but ``engine`` (the default) is a flag."""
    target = next(
        (name for name in TARGETS if name != "engine" and getattr(args, name)),
        "engine",
    )
    return FuzzConfig(args.operations, args.users, args.events), target


def fuzz_command(seed: int, config: FuzzConfig, target: str) -> str:
    """The ``repro-gepc fuzz`` line that replays one seed of a run."""
    flag = "" if target == "engine" else f" --{target}"
    return (
        f"repro-gepc fuzz --base-seed {seed} --seeds 1 "
        f"--operations {config.operations} --users {config.n_users} "
        f"--events {config.n_events}{flag}"
    )


def _cmd_fuzz(args: argparse.Namespace) -> int:
    config, target = fuzz_run_of(args)
    seeds = range(args.base_seed, args.base_seed + args.seeds)
    summary = run_fuzz(seeds, config, target)
    columns = summary.columns()
    print(
        format_table(
            f"{TARGETS[target].title}: seeds {seeds.start}..{seeds.stop - 1}",
            [header for header, _ in columns],
            [[value for _, value in columns]],
        )
    )
    if summary.lockdep is not None:
        dep = summary.lockdep
        print(
            f"lockdep: {dep.locks} lock(s), {dep.acquisitions} "
            f"acquisition(s), {dep.edges} order edge(s) "
            f"({dep.identified} mapped to declared identities), "
            f"{len(dep.violations)} violation(s), "
            f"{len(dep.cycles)} cycle(s), {len(dep.stalls)} "
            "loop stall(s)"
        )
        for problem in dep.violations + dep.cycles:
            print(f"  {problem}", file=sys.stderr)
        for stall in dep.stalls[:5]:
            print(f"  advisory: {stall}", file=sys.stderr)
    for report in summary.failures():
        print(f"{report.label} FAILED:", file=sys.stderr)
        for problem in [*report.mismatches[:10], *report.violations[:10]]:
            print(f"  {problem}", file=sys.stderr)
        print(
            f"  reproduce: {fuzz_command(report.seed, config, target)}",
            file=sys.stderr,
        )
    return 0 if summary.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-tenant planning service until SIGTERM/SIGINT."""
    from repro.service import run_service

    return run_service(
        args.root,
        host=args.host,
        port=args.port,
        backpressure=args.backpressure,
        fsync=not args.no_fsync,
    )


def _cmd_recover(args: argparse.Namespace) -> int:
    """Recover a durable platform directory and report what was rebuilt."""
    from repro.platform import DurablePlatform, RecoveryError

    try:
        platform, report = DurablePlatform.recover(
            args.directory, solver=GreedySolver(seed=args.seed)
        )
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    platform.close()
    print(report.summary())
    print(
        format_table(
            f"Recovered state: {args.directory}",
            [
                "snapshot seq", "last seq", "replayed", "rejected",
                "torn records", "utility", "audit checks", "mismatches",
            ],
            [[
                report.snapshot_seq,
                report.last_seq,
                report.replayed,
                report.rejected_skipped,
                report.truncated_records,
                report.utility,
                report.audit_checks,
                len(report.mismatches),
            ]],
        )
    )
    return 0 if report.ok else 1


def _add_scale_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--shards", type=int, default=1,
        help="solve as this many spatial shards (greedy only; "
        "see docs/scaling.md)",
    )


def _add_trace_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--distance",
        choices=("dense", "tiled"),
        default=None,
        help="distance backend: dense plane (default/oracle) or "
        "coordinate-resident tiles (value-identical; see "
        "docs/memory.md).  Overrides REPRO_DISTANCE.",
    )
    sub.add_argument(
        "--trace",
        action="store_true",
        help="print a per-phase timing/counter table to stderr",
    )
    sub.add_argument(
        "--trace-json",
        metavar="PATH",
        default=None,
        help="write the recorder snapshot as JSON to PATH",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gepc",
        description="GEPC/IEP reproduction toolkit (Cheng et al., ICDE 2017)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("solve", _cmd_solve),
        ("compare", _cmd_compare),
        ("stats", _cmd_stats),
        ("export", _cmd_export),
        ("simulate", _cmd_simulate),
    ):
        sub = subparsers.add_parser(name)
        sub.add_argument(
            "--city", default="beijing", choices=sorted(CITY_CONFIGS)
        )
        sub.add_argument("--scale", type=float, default=1.0)
        sub.add_argument("--seed", type=int, default=0)
        _add_trace_arguments(sub)
        sub.set_defaults(handler=handler)
    subparsers.choices["solve"].add_argument(
        "--solver", default="greedy", choices=["greedy", "gap"]
    )
    _add_scale_arguments(subparsers.choices["solve"])
    subparsers.choices["export"].add_argument("--out", required=True)
    subparsers.choices["simulate"].add_argument(
        "--operations", type=int, default=10
    )
    _add_scale_arguments(subparsers.choices["simulate"])
    subparsers.choices["simulate"].add_argument(
        "--batch", type=int, default=1,
        help="coalesce operations in batches of this size through the "
        "BatchedPlatform (default 1: serial submission)",
    )
    subparsers.choices["simulate"].add_argument(
        "--durable", metavar="DIR", default=None,
        help="run on a DurablePlatform persisting WAL + snapshots to "
        "DIR (recover later with `repro-gepc recover DIR`; see "
        "docs/durability.md)",
    )

    solve_file = subparsers.add_parser("solve-file")
    solve_file.add_argument("dataset")
    solve_file.add_argument(
        "--solver", default="greedy", choices=["greedy", "gap"]
    )
    solve_file.add_argument("--seed", type=int, default=0)
    _add_scale_arguments(solve_file)
    _add_trace_arguments(solve_file)
    solve_file.set_defaults(handler=_cmd_solve_file)

    replay = subparsers.add_parser("replay")
    replay.add_argument("dataset")
    replay.add_argument("oplog")
    replay.add_argument(
        "--solver", default="greedy", choices=["greedy", "gap"]
    )
    replay.add_argument("--seed", type=int, default=0)
    _add_trace_arguments(replay)
    replay.set_defaults(handler=_cmd_replay)

    fuzz = subparsers.add_parser(
        "fuzz",
        help="differential fuzz of the incremental kernel "
        "(see docs/correctness.md)",
    )
    fuzz.add_argument(
        "--seeds", type=int, default=25,
        help="number of consecutive seeds to fuzz (default 25)",
    )
    fuzz.add_argument(
        "--base-seed", type=int, default=0,
        help="first seed of the range (default 0)",
    )
    fuzz.add_argument(
        "--operations", type=int, default=12,
        help="atomic operations replayed per seed (default 12)",
    )
    fuzz.add_argument(
        "--users", type=int, default=24,
        help="users per fuzz instance (default 24)",
    )
    fuzz.add_argument(
        "--events", type=int, default=10,
        help="events per fuzz instance (default 10)",
    )
    # One system under test per run; without a flag, the engine.
    targets = fuzz.add_mutually_exclusive_group()
    targets.add_argument(
        "--sharded", action="store_true",
        help="additionally cross-check the sharded solver and batched "
        "platform against their monolithic/serial counterparts",
    )
    targets.add_argument(
        "--durable", action="store_true",
        help="crash-recovery fuzz: kill a DurablePlatform at every "
        "injection point (with and without torn WAL tails), recover, "
        "and diff against an uncrashed twin (see docs/durability.md)",
    )
    targets.add_argument(
        "--service", action="store_true",
        help="service-loop fuzz: drive the operation streams through "
        "the real planning-service client/server loop (HTTP + "
        "WebSocket) and diff every frame against an in-process "
        "oracle (see docs/service.md)",
    )
    _add_trace_arguments(fuzz)
    fuzz.set_defaults(handler=_cmd_fuzz)

    serve = subparsers.add_parser(
        "serve",
        help="host the multi-tenant async planning service "
        "(see docs/service.md)",
    )
    serve.add_argument(
        "--root", required=True,
        help="state root; each tenant persists under <root>/<name>/ "
        "and is recovered from there on startup",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8414,
        help="TCP port (0 picks a free port; the bound port is in the "
        "readiness line)",
    )
    serve.add_argument(
        "--backpressure", type=int, default=64,
        help="per-tenant write-queue bound; full queues block "
        "producers (default 64)",
    )
    serve.add_argument(
        "--no-fsync", action="store_true",
        help="skip per-append fsync (survives SIGKILL, not power loss; "
        "for tests and benches)",
    )
    _add_trace_arguments(serve)
    serve.set_defaults(handler=_cmd_serve)

    recover = subparsers.add_parser(
        "recover",
        help="recover a durable platform directory (snapshot + WAL "
        "replay; see docs/durability.md)",
    )
    recover.add_argument(
        "directory", help="state directory written by --durable runs"
    )
    recover.add_argument("--seed", type=int, default=0)
    _add_trace_arguments(recover)
    recover.set_defaults(handler=_cmd_recover)

    lint = subparsers.add_parser(
        "lint",
        help="run the repro-lint invariant checks "
        "(see docs/linting.md)",
    )
    from repro.lint.cli import add_lint_arguments
    from repro.lint.cli import run as lint_run

    add_lint_arguments(lint)
    lint.set_defaults(handler=lint_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    distance = getattr(args, "distance", None)
    if distance is not None:
        from repro.core.tiles import set_distance_backend

        set_distance_backend(distance)
    trace = getattr(args, "trace", False)
    trace_json = getattr(args, "trace_json", None)
    if not trace and trace_json is None:
        with maybe_shadow_checks():
            return args.handler(args)
    with recording() as recorder, maybe_shadow_checks():
        code = args.handler(args)
    if trace:
        print(
            render_text(recorder, title=f"Trace: {args.command}"),
            file=sys.stderr,
        )
    if trace_json is not None:
        write_json(recorder, trace_json)
    return code


if __name__ == "__main__":
    sys.exit(main())
