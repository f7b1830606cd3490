"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``bound``    print the bound c(eps, m), the phase index and the f ladder
``fig1``     render the Fig. 1 curves as ASCII (optionally export CSV)
``duel``     play the Theorem-1 adversary against an algorithm
``tree``     enumerate the Fig. 2 decision tree
``compare``  run the algorithm registry on a generated workload
``simulate`` run one algorithm through the kernel and print its run stats
``serve``    run the live admission service (HTTP + NDJSON socket)
``serve-bench`` drive a server with MMPP load and report latency stats
``sweep``    run a sweep grid (serial, multiprocess lease loop, or one shard)
``collect``  pull shard journals into a verified inbox (retry/salvage)
``verify``   check journal seals and row checksums end to end
``merge``    merge shard journals into one dataset with a coverage report
``cache``    inspect or clear the content-addressed offline bracket cache

All output is plain text; commands are deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _cmd_bound(args: argparse.Namespace) -> int:
    from repro.core.params import corner_values, threshold_parameters

    try:
        params = threshold_parameters(args.eps, args.m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"c(eps={args.eps}, m={args.m}) = {params.c:.6f}")
    corners = [round(float(c), 6) for c in corner_values(args.m)]
    print(f"phase k = {params.k} (corners: {corners})")
    ladder = ", ".join(f"f_{params.k + i}={v:.4f}" for i, v in enumerate(params.f))
    print(f"multipliers: {ladder}")
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from repro.analysis.phase import fig1_series, log_grid
    from repro.analysis.plotting import ascii_plot, series_to_csv

    machines = tuple(int(x) for x in args.machines.split(","))
    grid = log_grid(args.eps_min, 1.0, args.points)
    series = fig1_series(machines, epsilons=grid)
    print(
        ascii_plot(
            {f"m={s.m}": (s.epsilons, np.minimum(s.values, args.clip)) for s in series},
            logx=True,
            markers={f"m={s.m}": s.transitions for s in series},
            title=f"c(eps, m) for m in {machines} (clipped at {args.clip})",
        )
    )
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(
                series_to_csv(
                    {f"m={s.m}": (s.epsilons, s.values) for s in series},
                    x_name="epsilon",
                )
            )
        print(f"wrote {args.csv}")
    if args.svg:
        from repro.analysis.svg import fig1_svg

        with open(args.svg, "w") as fh:
            fh.write(fig1_svg(machine_counts=machines, clip=args.clip))
        print(f"wrote {args.svg}")
    return 0


def _cmd_duel(args: argparse.Namespace) -> int:
    from repro.adversary.base import duel
    from repro.baselines.registry import ALGORITHMS, make_algorithm
    from repro.core.params import c_bound

    spec = ALGORITHMS.get(args.algorithm)
    if spec is None or spec.model != "nonpreemptive":
        print(
            f"error: duels need a non-preemptive registry algorithm, got "
            f"{args.algorithm!r}",
            file=sys.stderr,
        )
        return 2
    try:
        bound = c_bound(args.eps, args.m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = duel(make_algorithm(args.algorithm), m=args.m, epsilon=args.eps)
    print(f"algorithm      : {result.policy_name}")
    print(f"forced ratio   : {result.forced_ratio:.6f}")
    print(f"c(eps, m)      : {bound:.6f}")
    print(f"algorithm load : {result.algorithm_load:.6f}")
    print(f"adversary OPT  : {result.constructive_opt:.6f}")
    print(f"game           : u={result.summary['u']}, h={result.summary['final_h']}")
    if args.trace:
        print()
        print(result.schedule.meta["trace"].render())
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    from repro.adversary.analysis import enumerate_decision_tree, render_decision_tree

    outcomes = enumerate_decision_tree(args.m, args.eps)
    print(render_decision_tree(outcomes))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.ratio import compare_algorithms
    from repro.analysis.tables import render_rows
    from repro.workloads import alternating_instance, cloud_instance, random_instance

    if args.workload == "random":
        inst = random_instance(args.n, args.m, args.eps, seed=args.seed)
    elif args.workload == "cloud":
        inst = cloud_instance(args.n, args.m, args.eps, seed=args.seed)
    else:
        inst = alternating_instance(max(1, args.n // (2 * args.m)), args.m, args.eps)
    algorithms = args.algorithms.split(",")
    reports = compare_algorithms(algorithms, inst)
    print(
        render_rows(
            [r.as_dict() for r in reports],
            columns=["algorithm", "load", "ratio_lower", "ratio_upper", "guarantee", "within"],
            title=f"{inst.name}: n={len(inst)}, m={args.m}, eps={args.eps}",
        )
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.baselines.registry import ALGORITHMS
    from repro.engine.backend import SimulationRequest, run_simulation
    from repro.workloads import alternating_instance, cloud_instance, random_instance

    if args.algorithm not in ALGORITHMS:
        print(
            f"error: unknown algorithm {args.algorithm!r}; known: "
            f"{', '.join(sorted(ALGORITHMS))}",
            file=sys.stderr,
        )
        return 2
    if args.workload == "random":
        inst = random_instance(args.n, args.m, args.eps, seed=args.seed)
    elif args.workload == "cloud":
        inst = cloud_instance(args.n, args.m, args.eps, seed=args.seed)
    else:
        inst = alternating_instance(max(1, args.n // (2 * args.m)), args.m, args.eps)
    result = run_simulation(
        SimulationRequest(args.algorithm, inst, record_events=args.events),
        backend=args.backend,
    )
    meta = getattr(result.detail, "meta", None)
    used = meta.get("backend", "scalar") if meta is not None else "scalar"
    stats = result.stats
    # Human-readable lines go to stdout normally, but to stderr under
    # --json so stdout stays a single machine-parseable document.  The
    # wall-clock throughput summary is diagnostics either way and always
    # goes to stderr, keeping stdout stable for output-diffing pipelines.
    out = sys.stderr if args.json else sys.stdout
    print(f"instance       : {inst.name} (n={len(inst)}, m={args.m}, eps={args.eps})",
          file=out)
    print(f"backend        : {used} (requested: {args.backend})", file=out)
    print(f"accepted load  : {result.accepted_load:.6f}", file=out)
    print(f"accepted jobs  : {result.accepted_count}/{len(inst)}", file=out)
    if stats is None:
        print("stats          : unavailable (engine not kernel-backed)", file=out)
    else:
        print(f"model          : {stats.model}", file=out)
        print(f"decisions      : {stats.decisions} ({stats.rejected} rejected, "
              f"{stats.revoked} revoked)", file=out)
        print(f"kernel steps   : {stats.steps}", file=out)
        print(f"sim time       : {stats.sim_seconds * 1e3:.2f} ms "
              f"({stats.decisions_per_second / 1e3:.1f} kdec/s)", file=out)
        print(f"audit time     : {stats.audit_seconds * 1e3:.2f} ms", file=out)
        print(f"throughput     : {stats.jobs_per_second:,.0f} jobs/s, "
              f"{stats.decisions_per_second:,.0f} decisions/s", file=sys.stderr)
    if args.events:
        events = result.events
        print(file=out)
        print(events.render() if events is not None else "no event stream recorded",
              file=out)
    if args.json:
        import json

        stats_dict = None
        if stats is not None:
            stats_dict = {
                k: (None if isinstance(v, float) and not np.isfinite(v) else v)
                for k, v in stats.as_dict().items()
            }
        print(json.dumps({
            "instance": inst.name,
            "n": len(inst),
            "machines": args.m,
            "epsilon": args.eps,
            "backend": used,
            "backend_requested": args.backend,
            "accepted_load": result.accepted_load,
            "accepted_jobs": result.accepted_count,
            "stats": stats_dict,
        }, indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import ServeConfig, run_server
    from repro.serve.snapshotter import DecisionJournalError

    kwargs: dict = {}
    if args.seed is not None:
        kwargs["rng"] = args.seed
    config = ServeConfig(
        algorithm=args.algorithm,
        machines=args.m,
        epsilon=args.eps,
        kwargs=kwargs,
        name=args.name,
        host=args.host,
        socket_port=args.socket_port,
        http_port=args.http_port,
        decision_log=args.decision_log,
        resume=args.resume,
        drain_timeout=args.drain_timeout,
        announce=sys.stdout,
    )
    try:
        server = run_server(config)
    except (DecisionJournalError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if server.failure is not None:
        print(f"error: {server.failure}; decision log left unsealed",
              file=sys.stderr)
        return 1
    stats = server.session.stats() if server.session is not None else None
    if stats is not None:
        drain = f"drained in {server.drain_seconds:.3f}s"
        if server.drain_timed_out:
            drain += (
                f" (drain_timeout: aborted stalled connection(s) after "
                f"{config.drain_timeout:g}s; journal sealed)"
            )
        print(
            f"served {stats.decisions} decision(s) "
            f"({stats.accepted} accepted, {stats.rejected} rejected), "
            f"{drain}",
            file=sys.stderr,
        )
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import json

    from repro.serve.loadgen import run_bench, run_load
    from repro.serve.server import ServeConfig
    from repro.serve.snapshotter import DecisionJournalError, verify_decision_log
    from repro.workloads.arrivals import mmpp_instance

    inst = mmpp_instance(args.n, machines=args.m, epsilon=args.eps, seed=args.seed)
    if args.connect:
        host, _, port = args.connect.rpartition(":")
        try:
            report = run_load(host or "127.0.0.1", int(port), inst,
                              window=args.window)
        except (OSError, ValueError, ConnectionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        config = ServeConfig(
            algorithm=args.algorithm,
            machines=args.m,
            epsilon=args.eps,
            name=inst.name,
            decision_log=args.decision_log,
        )
        try:
            report, _ = run_bench(config, inst, window=args.window)
        except (DecisionJournalError, KeyError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(f"workload       : {inst.name} (n={len(inst)}, m={args.m}, eps={args.eps})",
          file=sys.stderr)
    print(f"decisions      : {report.accepted + report.rejected} "
          f"({report.accepted} accepted, {report.rejected} rejected, "
          f"{report.errors} errors)", file=sys.stderr)
    print(f"throughput     : {report.decisions_per_second:,.0f} decisions/s "
          f"over {report.wall_seconds:.3f}s", file=sys.stderr)
    print(f"latency        : p50 {report.latency_p50_ms:.3f} ms, "
          f"p99 {report.latency_p99_ms:.3f} ms, "
          f"p99.9 {report.latency_p999_ms:.3f} ms", file=sys.stderr)
    if report.drain_seconds is not None:
        print(f"drain          : {report.drain_seconds:.3f}s graceful shutdown",
              file=sys.stderr)
    bench = {"workload": inst.name, "n": len(inst), "machines": args.m,
             "epsilon": args.eps, "algorithm": args.algorithm,
             "window": args.window, **report.to_json()}
    if args.verify:
        if not args.decision_log or args.connect:
            print("error: --verify needs a self-hosted run with --decision-log",
                  file=sys.stderr)
            return 2
        ok, detail = verify_decision_log(args.decision_log)
        bench["bit_identical"] = ok
        print(f"verify         : {detail}", file=sys.stderr)
        if not ok:
            print("error: served decision log does NOT replay bit-identical "
                  "through the batch engine", file=sys.stderr)
            if args.json:
                with open(args.json, "w") as fh:
                    json.dump(bench, fh, indent=2)
            return 1
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(bench, fh, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    if report.errors:
        return EXIT_SWEEP_DEGRADED
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis.capacity import machines_for_target, slack_for_target
    from repro.core.guarantees import theorem2_bound

    if (args.eps is None) == (args.m is None):
        print("error: pass exactly one of --eps or --m", file=sys.stderr)
        return 2
    if args.eps is not None:
        m = machines_for_target(args.eps, args.target)
        if m is None:
            print(
                f"unachievable: with eps={args.eps} the guarantee never reaches "
                f"{args.target} (floor ~ 2 + ln(1/eps))"
            )
            return 1
        print(
            f"fleet size m = {m} suffices: guarantee = "
            f"{theorem2_bound(args.eps, m):.4f} <= {args.target}"
        )
    else:
        eps = slack_for_target(args.m, args.target)
        if eps is None:
            print(
                f"unachievable: with m={args.m} the guarantee never reaches "
                f"{args.target} even at eps = 1 (floor {theorem2_bound(1.0, args.m):.4f})"
            )
            return 1
        print(
            f"slack eps = {eps:.6f} suffices: guarantee = "
            f"{theorem2_bound(eps, args.m):.4f} <= {args.target}"
        )
    return 0


#: Distinct exit codes for the ``sweep`` command's degraded outcomes.
EXIT_SWEEP_DEGRADED = 4  # finished, but some cells were quarantined
EXIT_SWEEP_INTERRUPTED = 130  # SIGINT; completed rows were flushed


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json
    from functools import partial

    from repro.analysis.tables import render_rows
    from repro.offline.cache import BracketCache
    from repro.workloads.cloud import cloud_instance
    from repro.workloads.execute import ExecutionPolicy, execute_sweep
    from repro.workloads.journal import JournalError, JournalMismatchError
    from repro.workloads.random_instances import random_instance
    from repro.workloads.resilient import (
        SeedCollisionError,
        SingleMachineGridError,
        SweepInterrupted,
        UnknownAlgorithmError,
    )
    from repro.workloads.sweep import SweepSpec, aggregate_rows, rows_to_csv

    # A grid that execute_sweep refuses before any cell runs: exit 2.
    grid_errors = (SeedCollisionError, SingleMachineGridError, UnknownAlgorithmError)
    cache = (
        BracketCache(args.cache_dir) if args.cache or args.cache_dir else None
    )

    def _cache_summary(stats: dict | None) -> None:
        if stats is None:
            return
        print(
            f"bracket cache: {stats['hits']} hits / {stats['misses']} misses "
            f"({100.0 * stats['hit_rate']:.0f}% hit rate), "
            f"{stats['writes']} written, {stats['evictions']} evicted"
            + (
                f", {stats['corrupt']} corrupt entries dropped"
                if stats["corrupt"]
                else ""
            )
        )

    factory = random_instance if args.workload == "random" else cloud_instance
    spec = SweepSpec(
        epsilons=[float(e) for e in args.epsilons.split(",")],
        machine_counts=[int(m) for m in args.machines.split(",")],
        algorithms=args.algorithms.split(","),
        workload=partial(factory, args.n),
        repetitions=args.repetitions,
        base_seed=args.seed,
        label=f"cli-{args.workload}",
    )

    def _flush(rows, label):
        print(render_rows(aggregate_rows(rows), title=label))
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(rows_to_csv(rows))
            print(f"wrote {args.csv}")

    if (
        args.journal
        and args.resume
        and os.path.abspath(args.journal) != os.path.abspath(args.resume)
    ):
        print(
            "error: --journal and --resume point at different files; pass just "
            "--resume to continue an existing journal",
            file=sys.stderr,
        )
        return 2
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}", file=sys.stderr)
        return 2
    if args.shards > 1 and args.shard_index is None:
        print(
            f"error: --shards {args.shards} requires --shard-index "
            f"(0..{args.shards - 1}) naming the shard this host executes",
            file=sys.stderr,
        )
        return 2
    if args.shard_index is not None and not 0 <= args.shard_index < args.shards:
        print(
            f"error: --shard-index {args.shard_index} out of range "
            f"[0, {args.shards})",
            file=sys.stderr,
        )
        return 2
    if args.salvage and args.resume is None:
        print(
            "error: --salvage repairs the journal being resumed; pass it "
            "together with --resume",
            file=sys.stderr,
        )
        return 2
    journal_path = args.resume or args.journal
    resilient = (
        args.parallel > 0
        or journal_path is not None
        or args.timeout is not None
        or args.manifest is not None
        or args.shards > 1
        or args.adaptive_reps
        or args.hosts is not None
    )
    hosts = None
    if args.hosts is not None:
        from repro.workloads.remote import load_hosts

        try:
            hosts = load_hosts(args.hosts)
        except (OSError, ValueError) as exc:
            print(f"error: --hosts {args.hosts}: {exc}", file=sys.stderr)
            return 2
    if not resilient:
        # Serial fast path; still exit gracefully on ^C (no partial rows to
        # save — run with --journal to make interrupted work resumable).
        try:
            result = execute_sweep(
                spec,
                ExecutionPolicy(cache=cache, backend=args.backend),
            )
        except grid_errors as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            print("\ninterrupted: serial sweep discarded; re-run with --journal "
                  "PATH to checkpoint completed cells", file=sys.stderr)
            return EXIT_SWEEP_INTERRUPTED
        _flush(result.rows, f"sweep[{args.workload}]")
        _cache_summary(result.cache_stats)
        return 0

    try:
        policy = ExecutionPolicy(
            workers=args.parallel or min(len(list(spec.cells())), os.cpu_count() or 2),
            timeout=args.timeout,
            retries=args.retries,
            journal=journal_path,
            resume=args.resume is not None,
            salvage=args.salvage,
            cache=cache,
            shards=args.shards,
            shard_index=args.shard_index,
            backend=args.backend,
            speculate=args.speculate,
            adaptive_reps=args.adaptive_reps,
            heartbeat_interval=args.heartbeat_interval,
            lease_timeout=args.lease_timeout,
            hosts=hosts,
            host_max_failures=args.host_max_failures,
            local_fallback=not args.no_local_fallback,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = execute_sweep(spec, policy)
    except JournalMismatchError:
        raise
    except (JournalError, *grid_errors) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SweepInterrupted as interrupted:
        partial_result = interrupted.result
        print(f"\ninterrupted: {partial_result.manifest.summary()}", file=sys.stderr)
        if partial_result.rows:
            _flush(partial_result.rows, f"sweep[{args.workload}] (partial)")
        if journal_path:
            print(
                f"resume with: repro sweep ... --resume {journal_path}",
                file=sys.stderr,
            )
        return EXIT_SWEEP_INTERRUPTED

    manifest = result.manifest
    label = f"sweep[{args.workload}]"
    if args.shards > 1:
        label += f" shard {args.shard_index}/{args.shards}"
    _flush(result.rows, label)
    print(manifest.summary())
    if args.shards > 1 and journal_path:
        print(
            f"shard {args.shard_index}/{args.shards} journaled to {journal_path}; "
            "combine the shard journals with: repro merge <journal...>"
        )
    _cache_summary(result.cache_stats)
    if args.manifest:
        with open(args.manifest, "w") as fh:
            json.dump(manifest.as_dict(), fh, indent=2)
        print(f"wrote {args.manifest}")
    for worker in manifest.worker_failures:
        # Worker quarantine is recovery, not failure: the pool shrank but
        # every cell still completed elsewhere — report it, exit clean.
        print(
            f"quarantined worker slot {worker.slot} after "
            f"{worker.failures} failure(s): {worker.detail}",
            file=sys.stderr,
        )
    for host in manifest.host_failures:
        # Same contract one domain up: a quarantined host is recovery.
        print(
            f"quarantined host {host.host!r} after "
            f"{host.failures} failure(s): {host.detail}",
            file=sys.stderr,
        )
    if manifest.degraded_to_local:
        print(
            "every remote host quarantined; sweep finished on the local "
            "fallback pool",
            file=sys.stderr,
        )
    if manifest.failures:
        for failure in manifest.failures:
            print(
                f"quarantined cell (eps={failure.epsilon}, m={failure.machines}, "
                f"rep={failure.repetition}) after {failure.attempts} attempt(s): "
                f"[{failure.kind}] {failure.detail}",
                file=sys.stderr,
            )
        return EXIT_SWEEP_DEGRADED
    return 0


#: ``repro verify`` exit code when a journal is intact but unsealed.
EXIT_VERIFY_UNSEALED = 3


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.workloads.journal import verify_journal

    # A directory argument expands to every journal inside it (sorted),
    # so multi-shard inboxes verify in one command.  Quarantined copies
    # under ``<dir>/quarantine/`` are damage already accounted for by
    # collect — only the top-level journals are checked.
    paths: list[str] = []
    for path in args.journals:
        if os.path.isdir(path):
            inside = sorted(
                os.path.join(path, name)
                for name in os.listdir(path)
                if name.endswith(".jsonl")
                and os.path.isfile(os.path.join(path, name))
            )
            if not inside:
                print(f"error: {path}: no .jsonl journals in directory",
                      file=sys.stderr)
                return 2
            paths.extend(inside)
        else:
            paths.append(path)
    worst = 0
    for path in paths:
        verification = verify_journal(path)
        print(verification.summary())
        if verification.corruption:
            for event in verification.corruption.events:
                print(f"  line {event.line}: [{event.kind}] {event.detail}")
        if verification.status == "corrupt":
            worst = max(worst, 2)
        elif verification.status == "unsealed":
            worst = max(worst, 1)
    if worst == 2:
        print(
            "corrupt journal(s): re-transfer with repro collect, or repair "
            "with repro sweep --resume <journal> --salvage",
            file=sys.stderr,
        )
        return 1
    return EXIT_VERIFY_UNSEALED if worst == 1 else 0


def _cmd_collect(args: argparse.Namespace) -> int:
    from repro.workloads.transport import TransferPolicy, collect_journals

    try:
        policy = TransferPolicy(
            retries=args.retries, backoff=args.backoff, timeout=args.timeout
        )
        result = collect_journals(
            args.sources,
            args.inbox,
            command=args.command,
            policy=policy,
            verify=args.verify,
            salvage=args.salvage,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    if result.collected:
        print(
            "merge the inbox with: repro merge "
            + " ".join(result.collected)
            + (" --verify" if result.ok else "")
        )
    if any(r.status in ("failed", "quarantined") for r in result.records):
        return 2
    if result.degraded:
        return EXIT_SWEEP_DEGRADED
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_rows
    from repro.workloads.journal import JournalError
    from repro.workloads.sharding import merge_journals
    from repro.workloads.sweep import aggregate_rows, rows_to_csv

    try:
        result = merge_journals(
            args.journals,
            out=args.out,
            salvage=not args.strict,
            require_verified=args.verify,
        )
    except JournalError as exc:  # includes JournalMismatch/IntegrityError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.coverage_report())
    if args.table and result.rows:
        print(render_rows(aggregate_rows(result.rows), title="merged sweep"))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(rows_to_csv(result.rows))
        print(f"wrote {args.csv}")
    if result.out_path:
        print(f"wrote {result.out_path}")
    if not result.complete:
        print(
            "merge is incomplete; resume the merged journal to fill the "
            "holes: repro sweep ... --resume "
            + (result.out_path or "<merged journal>"),
            file=sys.stderr,
        )
        return EXIT_SWEEP_DEGRADED
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.offline.cache import BracketCache

    cache = BracketCache(args.cache_dir)
    if args.action == "stats":
        report = cache.scan()
        print(f"cache directory : {report.directory}")
        print(f"entries         : {report.entries}")
        print(f"shards          : {report.shards}")
        print(f"size on disk    : {report.total_bytes} bytes")
        print(f"schema version  : {report.as_dict()['version']}")
    else:  # clear
        removed = cache.clear()
        print(f"removed {removed} cached bracket(s) from {cache.cache_dir}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_report

    sections = args.sections.split(",") if args.sections else None
    text = generate_report(sections)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Commitment and Slack for Online Load Maximization — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="print c(eps, m) and the parameter ladder")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("fig1", help="render the Fig. 1 curves")
    p.add_argument("--machines", default="1,2,3,4")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--eps-min", type=float, default=0.02)
    p.add_argument("--clip", type=float, default=25.0)
    p.add_argument("--csv")
    p.add_argument("--svg", help="also render a publication-grade SVG figure")
    p.set_defaults(fn=_cmd_fig1)

    p = sub.add_parser("duel", help="play the Theorem-1 adversary")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--algorithm", default="threshold")
    p.add_argument("--trace", action="store_true", help="print the decision trace")
    p.set_defaults(fn=_cmd_duel)

    p = sub.add_parser("tree", help="enumerate the Fig. 2 decision tree")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(fn=_cmd_tree)

    p = sub.add_parser(
        "simulate", help="run one algorithm through the simulation kernel"
    )
    p.add_argument("--algorithm", default="threshold")
    p.add_argument("--workload", choices=["random", "cloud", "bait-and-whale"], default="random")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--events", action="store_true", help="record and print the kernel event stream"
    )
    p.add_argument(
        "--backend", choices=["auto", "scalar", "batch"], default="auto",
        help="simulation kernel backend (see docs/engine_backends.md); "
             "batch falls back to scalar with a warning when unsupported",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print a machine-readable JSON document on stdout and route "
             "all human-readable lines to stderr",
    )
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser(
        "serve",
        help="run the live admission service (HTTP + NDJSON socket)",
    )
    p.add_argument("--algorithm", default="threshold",
                   help="registry algorithm (immediate-commitment only)")
    p.add_argument("--m", type=int, default=4, help="machine count")
    p.add_argument("--eps", type=float, default=0.5, help="declared slack")
    p.add_argument("--seed", type=int, default=None,
                   help="seed forwarded to randomized algorithms")
    p.add_argument("--name", default="", help="instance name stamped on the log")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--socket-port", type=int, default=0,
                   help="NDJSON socket port (0 = ephemeral, announced on stdout)")
    p.add_argument("--http-port", type=int, default=0,
                   help="HTTP port (0 = ephemeral, announced on stdout)")
    p.add_argument("--decision-log",
                   help="journal every decision to this sealed JSONL log "
                        "(enables crash recovery via --resume)")
    p.add_argument("--resume", action="store_true",
                   help="resume from an existing --decision-log: replay it to "
                        "rebuild the session state, verify, and keep appending")
    p.add_argument("--drain-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="hard bound on graceful drain: abort connections "
                        "stalled on clients that stopped reading, seal the "
                        "journal, and exit 0 instead of hanging forever")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "serve-bench",
        help="drive an admission server with MMPP load; report latency stats",
    )
    p.add_argument("--algorithm", default="threshold")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--n", type=int, default=2000, help="MMPP jobs to submit")
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--window", type=int, default=64,
                   help="max offers in flight on the socket (default 64)")
    p.add_argument("--connect", metavar="HOST:PORT",
                   help="drive an already-running server instead of "
                        "self-hosting one in-process")
    p.add_argument("--decision-log",
                   help="self-hosted runs: journal served decisions here "
                        "(required by --verify)")
    p.add_argument("--verify", action="store_true",
                   help="after the run, replay the decision log through the "
                        "offline batch engine and fail unless bit-identical")
    p.add_argument("--json", metavar="PATH",
                   help="write the benchmark report (BENCH_serve schema) here")
    p.set_defaults(fn=_cmd_serve_bench)

    p = sub.add_parser("plan", help="capacity planning: invert the bound function")
    p.add_argument("--target", type=float, required=True, help="target worst-case ratio")
    p.add_argument("--eps", type=float, help="slack: solve for the fleet size")
    p.add_argument("--m", type=int, help="fleet size: solve for the slack")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("sweep", help="run a sweep grid and export CSV")
    p.add_argument("--epsilons", default="0.1,0.3")
    p.add_argument("--machines", default="2,3")
    p.add_argument(
        "--algorithms", default="threshold,greedy"
    )
    p.add_argument("--workload", choices=["random", "cloud"], default="random")
    p.add_argument("--n", type=int, default=15)
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument(
        "--parallel", type=int, default=0,
        help="worker count; 0 = serial, unless --timeout/--journal/--resume/"
             "--manifest/--shards/--adaptive-reps/--hosts is given (each "
             "implies the multiprocess lease loop, sized to the CPUs)",
    )
    p.add_argument("--csv", help="write the raw rows to this CSV file")
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell timeout in seconds (implies the fault-tolerant runner)",
    )
    p.add_argument(
        "--retries", type=int, default=2,
        help="extra attempts per failed cell (default 2); a cell that kills "
             "retries + 1 workers is quarantined as a crash",
    )
    p.add_argument(
        "--journal",
        help="checkpoint completed cells to this append-only JSONL journal "
             "(must not already exist; implies the fault-tolerant runner)",
    )
    p.add_argument(
        "--resume", metavar="JOURNAL",
        help="resume from a checkpoint journal: replay completed cells from "
             "disk and execute only the remainder (implies the fault-tolerant "
             "runner)",
    )
    p.add_argument(
        "--salvage", action="store_true",
        help="with --resume: repair a journal damaged mid-file (bit flips, "
             "failed transfers) — corrupt records are quarantined, the file "
             "is rewritten clean and their cells re-run",
    )
    p.add_argument(
        "--manifest",
        help="write the structured failure manifest (JSON) to this path "
             "(implies the fault-tolerant runner)",
    )
    p.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="reuse offline OPT brackets via the content-addressed disk "
             "cache (default: on; --no-cache recomputes every bracket)",
    )
    p.add_argument(
        "--cache-dir",
        help="bracket cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro/brackets; implies --cache)",
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="partition the grid into this many disjoint, cost-balanced "
             "shards and execute only --shard-index (implies the "
             "fault-tolerant runner); merge shard journals with repro merge",
    )
    p.add_argument(
        "--shard-index", type=int, default=None,
        help="which shard this host executes (0-based; required with "
             "--shards > 1)",
    )
    p.add_argument(
        "--backend", choices=["auto", "scalar", "batch"], default="auto",
        help="simulation kernel backend for every cell "
             "(see docs/engine_backends.md)",
    )
    p.add_argument(
        "--speculate", action=argparse.BooleanOptionalAction, default=True,
        help="re-execute straggler cells speculatively once "
             "the queue runs dry; first verified result wins and duplicates "
             "are asserted bit-identical (default: on)",
    )
    p.add_argument(
        "--adaptive-reps", action="store_true",
        help="issue repetitions lazily and skip the "
             "remainder of a config once the bootstrap CI of every "
             "algorithm's mean accepted load is tight",
    )
    p.add_argument(
        "--heartbeat-interval", type=float, default=0.1,
        help="worker heartbeat cadence in seconds "
             "(default 0.1)",
    )
    p.add_argument(
        "--lease-timeout", type=float, default=None,
        help="seconds without a heartbeat before a lease is "
             "presumed dead and re-dispatched (default: 10x the heartbeat "
             "interval)",
    )
    p.add_argument(
        "--hosts", metavar="HOSTS_JSON",
        help="remote execution: serve the lease queue to worker "
             "processes on the hosts in this registry (name, launch "
             "command, slots per host; see docs/remote_execution.md)",
    )
    p.add_argument(
        "--host-max-failures", type=int, default=2,
        help="with --hosts: host failures (channel EOF, handshake timeout) "
             "tolerated before the whole host is quarantined (default 2)",
    )
    p.add_argument(
        "--no-local-fallback", action="store_true",
        help="with --hosts: when every remote host is quarantined, "
             "quarantine the remaining cells instead of finishing the "
             "sweep on local fallback workers",
    )
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "merge",
        help="merge shard journals into one dataset with a coverage report",
    )
    p.add_argument(
        "journals", nargs="+",
        help="journal paths to merge (shard-stamped or plain; fingerprints "
             "must match)",
    )
    p.add_argument(
        "--out",
        help="write the merged, resumable journal to this path "
             "(must not already exist)",
    )
    p.add_argument("--csv", help="write the merged rows to this CSV file")
    p.add_argument(
        "--table", action=argparse.BooleanOptionalAction, default=True,
        help="print the aggregated results table (default: on)",
    )
    p.add_argument(
        "--verify", action="store_true",
        help="require every input to be sealed with all row checksums "
             "intact; refuse to merge anything less",
    )
    p.add_argument(
        "--strict", action="store_true",
        help="fail on the first corrupt record instead of quarantining it "
             "and counting its cell as missing",
    )
    p.set_defaults(fn=_cmd_merge)

    p = sub.add_parser(
        "verify",
        help="check journal seals and row checksums end to end",
    )
    p.add_argument(
        "journals", nargs="+",
        help="journal paths to verify; a directory verifies every .jsonl "
             "inside it (worst exit code wins)",
    )
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "collect",
        help="pull shard journals into a verified inbox (retry/salvage)",
    )
    p.add_argument(
        "--from", dest="sources", action="append", required=True,
        metavar="URI",
        help="journal to pull (repeatable); a filesystem path for the "
             "default local transport, or whatever --command understands",
    )
    p.add_argument(
        "--inbox", required=True,
        help="destination directory; verified journals land here, damaged "
             "originals under <inbox>/quarantine/",
    )
    p.add_argument(
        "--command",
        help="fetch command template with {source} and {dest} placeholders "
             "(e.g. 'scp -q {source} {dest}'); default: local file copy",
    )
    p.add_argument(
        "--retries", type=int, default=2,
        help="extra attempts per transfer, exponential backoff (default 2)",
    )
    p.add_argument(
        "--backoff", type=float, default=0.25,
        help="base retry delay in seconds, doubled per attempt (default 0.25)",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-transfer wall-clock budget in seconds (default: none)",
    )
    p.add_argument(
        "--verify", action=argparse.BooleanOptionalAction, default=True,
        help="verify seals and row checksums before accepting a journal "
             "into the inbox (default: on)",
    )
    p.add_argument(
        "--salvage", action=argparse.BooleanOptionalAction, default=True,
        help="when a journal still arrives corrupt after all retries, keep "
             "its intact rows and quarantine the damaged ones (default: on; "
             "--no-salvage marks the source failed instead)",
    )
    p.set_defaults(fn=_cmd_collect)

    p = sub.add_parser("cache", help="inspect or clear the offline bracket cache")
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument(
        "--cache-dir",
        help="bracket cache directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro/brackets)",
    )
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser("report", help="generate the condensed reproduction report")
    p.add_argument("--sections", help="comma-separated subset (default: all)")
    p.add_argument("--out", help="write markdown to this file instead of stdout")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("compare", help="compare algorithms on a workload")
    p.add_argument("--workload", choices=["random", "cloud", "bait-and-whale"], default="random")
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--n", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--algorithms",
        default="threshold,greedy,lee-style,dasgupta-palis,migration-greedy",
    )
    p.set_defaults(fn=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
