"""Remote elastic execution: wire codec, host registry, network chaos.

The acceptance bar (ISSUE 10): a 3-host remote sweep where one host is
killed and one is partitioned-then-healed completes with zero cells
lost, the dead host quarantined as one failure domain, and rows
bit-identical to the serial scalar run.  The wire layer
(:func:`~repro.workloads.remote.encode_message` /
:class:`~repro.workloads.remote.HostLink`) is pure, so delivery
guarantees — CRC, sequence dedup, partition hold/heal — are unit- and
property-tested without processes.
"""

import json
import math
import os
import threading
from functools import lru_cache, partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.testing.chaos import HostChaosPlan
from repro.workloads.elastic import CellQueue
from repro.workloads.execute import ExecutionPolicy, execute_sweep
from repro.workloads.journal import load_journal
from repro.workloads.random_instances import random_instance
from repro.workloads.remote import (
    DEFAULT_WORKER_COMMAND,
    HostLink,
    HostSpec,
    LOCAL_FALLBACK_HOST,
    RemoteProtocolError,
    code_fingerprint,
    decode_message,
    encode_message,
    env_fingerprint,
    fingerprint_mismatch,
    load_hosts,
    message_crc,
    resolve_hosts,
)
from repro.workloads.resilient import run_cell
from repro.workloads.sweep import SweepSpec


def _spec(base_seed: int = 23, **overrides) -> SweepSpec:
    defaults = dict(
        epsilons=[0.2, 0.4],
        machine_counts=[1, 2],
        algorithms=["threshold", "greedy"],
        workload=partial(random_instance, 8),
        repetitions=2,
        base_seed=base_seed,
    )
    defaults.update(overrides)
    return SweepSpec(**defaults)


def _rows_key(rows):
    return [r.as_dict() for r in rows]


@lru_cache(maxsize=None)
def _serial_rows(base_seed: int, repetitions: int = 2) -> tuple:
    return tuple(
        execute_sweep(_spec(base_seed, repetitions=repetitions)).rows
    )


def _remote(spec, hosts, **kwargs):
    defaults = dict(
        hosts=hosts,
        retries=2,
        heartbeat_interval=0.05,
        handshake_timeout=15.0,
    )
    defaults.update(kwargs)
    return execute_sweep(spec, ExecutionPolicy(**defaults))


# ---------------------------------------------------------------------------
# wire codec
# ---------------------------------------------------------------------------


class TestWireCodec:
    def test_round_trip_every_op(self):
        message = decode_message(encode_message("lease", 3, seed=42, eps=0.2))
        assert message["op"] == "lease"
        assert message["seq"] == 3 and message["seed"] == 42
        assert message["crc"] == message_crc(message)

    def test_crc_is_stable_under_key_reordering(self):
        a = {"op": "result", "seq": 1, "rows": [[1, 2]]}
        b = {"rows": [[1, 2]], "seq": 1, "op": "result"}
        assert message_crc(a) == message_crc(b)

    def test_corrupted_payload_fails_loudly(self):
        raw = encode_message("result", 5, seed=7, rows=[[1.0, 2.0]])
        tampered = raw.replace(b"2.0", b"3.0")
        with pytest.raises(RemoteProtocolError, match="CRC mismatch"):
            decode_message(tampered)

    @pytest.mark.parametrize(
        "raw, match",
        [
            (b"not json\n", "not valid JSON"),
            (b"[1, 2]\n", "JSON object"),
            (b'{"op": "warp", "seq": 1}\n', "unknown op"),
            (b'{"op": "ready"}\n', "integer seq"),
            (b"\xff\xfe\n", "not UTF-8"),
        ],
    )
    def test_garbage_is_rejected(self, raw, match):
        with pytest.raises(RemoteProtocolError, match=match):
            decode_message(raw)

    def test_unknown_op_cannot_be_encoded(self):
        with pytest.raises(RemoteProtocolError, match="unknown op"):
            encode_message("warp", 1)

    def test_non_finite_rows_survive_the_wire(self):
        """Injected 'corrupt' chaos rows carry NaN — the controller must
        receive (and then reject) them, not crash the framing."""
        raw = encode_message("result", 2, seed=9, rows=[[float("nan")]])
        message = decode_message(raw)
        assert math.isnan(message["rows"][0][0])


# ---------------------------------------------------------------------------
# environment fingerprint
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_env_fingerprint_shape(self):
        fp = env_fingerprint()
        assert fp["code"] == code_fingerprint()
        assert len(fp["code"]) == 16
        assert fp["protocol"] == 1

    def test_identical_fingerprints_are_compatible(self):
        assert fingerprint_mismatch(env_fingerprint(), env_fingerprint()) is None

    def test_first_differing_field_is_named(self):
        ours = env_fingerprint()
        theirs = dict(ours, code="deadbeefdeadbeef")
        assert "code:" in fingerprint_mismatch(ours, theirs)
        theirs = dict(ours, protocol=99)
        assert "protocol:" in fingerprint_mismatch(ours, theirs)
        assert "99" in fingerprint_mismatch(ours, theirs)


# ---------------------------------------------------------------------------
# host registry
# ---------------------------------------------------------------------------


class TestHostRegistry:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            HostSpec(name="")
        with pytest.raises(ValueError, match="slots"):
            HostSpec(name="a", slots=0)
        with pytest.raises(ValueError, match="command"):
            HostSpec(name="a", command="   ")

    def test_argv_expands_the_python_template(self):
        import sys

        argv = HostSpec(name="a").argv()
        assert argv[0] == sys.executable
        assert argv[1:] == ["-m", "repro.workloads.remote_worker"]
        ssh = HostSpec(name="b", command="ssh b {python} -m repro.workloads.remote_worker")
        assert ssh.argv()[:2] == ["ssh", "b"]

    def test_load_hosts_bare_list_and_wrapped(self, tmp_path):
        entries = [
            {"name": "a", "slots": 2},
            {"name": "b", "fingerprint": "deadbeefdeadbeef"},
        ]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(entries))
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"hosts": entries}))
        for path in (bare, wrapped):
            specs = load_hosts(path)
            assert [s.name for s in specs] == ["a", "b"]
            assert specs[0].slots == 2
            assert specs[0].command == DEFAULT_WORKER_COMMAND
            assert specs[1].fingerprint == "deadbeefdeadbeef"

    @pytest.mark.parametrize(
        "data, match",
        [
            ([], "non-empty list"),
            ({"hosts": []}, "non-empty list"),
            ({"machines": [{"name": "a"}]}, "non-empty list"),
            ([{"name": "a", "slot": 2}], "unknown host keys"),
            ([{"slots": 2}], "needs a name"),
            (["a"], "must be objects"),
            ([{"name": "a"}, {"name": "a"}], "duplicate host names"),
        ],
    )
    def test_bad_registry_rejected(self, tmp_path, data, match):
        path = tmp_path / "hosts.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=match):
            load_hosts(path)

    def test_resolve_hosts_passthrough_and_empty(self):
        specs = (HostSpec(name="a"),)
        assert resolve_hosts(specs) == specs
        assert resolve_hosts(list(specs)) == specs
        with pytest.raises(ValueError, match="at least one host"):
            resolve_hosts(())


# ---------------------------------------------------------------------------
# HostLink: delivery guarantees as a pure state machine
# ---------------------------------------------------------------------------


def _beat(seq: int) -> bytes:
    return encode_message("heartbeat", seq, seed=1)


class TestHostLink:
    def test_clean_delivery_in_order(self):
        link = HostLink("a")
        out = [link.receive(_beat(i), now=0.0) for i in range(3)]
        assert [m[0]["seq"] for m in out] == [0, 1, 2]

    def test_duplicate_seq_is_deduped_not_double_delivered(self):
        link = HostLink("a")
        assert len(link.receive(_beat(7), now=0.0)) == 1
        assert link.receive(_beat(7), now=0.1) == []
        assert link.duplicates_dropped == 1

    def test_injected_duplicate_fault_delivers_once(self):
        link = HostLink("a", HostChaosPlan(duplicate=(("a", 0),)))
        assert len(link.receive(_beat(0), now=0.0)) == 1
        assert link.duplicates_dropped == 1

    def test_injected_drop_fault_loses_the_message(self):
        link = HostLink("a", HostChaosPlan(drop=(("a", 1),)))
        assert len(link.receive(_beat(0), now=0.0)) == 1
        assert link.receive(_beat(1), now=0.1) == []
        assert link.dropped == 1
        assert len(link.receive(_beat(2), now=0.2)) == 1

    def test_chaos_is_keyed_by_host_name(self):
        link = HostLink("b", HostChaosPlan(drop=(("a", 0),)))
        assert len(link.receive(_beat(0), now=0.0)) == 1

    def test_exempt_link_ignores_chaos(self):
        link = HostLink("a", HostChaosPlan(drop=(("a", 0),)), exempt=True)
        assert len(link.receive(_beat(0), now=0.0)) == 1

    def test_partition_holds_then_heals_with_backlog_in_order(self):
        link = HostLink("a", HostChaosPlan(partition=(("a", 1, 5.0),)))
        assert len(link.receive(_beat(0), now=0.0)) == 1  # pre-partition
        assert link.receive(_beat(1), now=1.0) == []
        assert link.partitioned
        assert link.receive(_beat(2), now=2.0) == []
        assert link.flush(now=5.9) == []  # heal clock starts at first hold
        healed = link.flush(now=6.0)
        assert [m["seq"] for m in healed] == [1, 2]
        assert link.healed and not link.partitioned
        # Post-heal traffic flows clean.
        assert len(link.receive(_beat(3), now=6.1)) == 1

    def test_heal_via_receive_flushes_in_one_call(self):
        link = HostLink("a", HostChaosPlan(partition=(("a", 0, 1.0),)))
        assert link.receive(_beat(0), now=0.0) == []
        # The next inbound line past the heal horizon delivers the backlog.
        out = link.receive(_beat(1), now=2.0)
        assert [m["seq"] for m in out] == [0, 1]

    def test_healed_backlog_is_seq_deduped(self):
        link = HostLink(
            "a",
            HostChaosPlan(partition=(("a", 0, 1.0),), duplicate=(("a", 0),)),
        )
        assert link.receive(_beat(0), now=0.0) == []
        out = link.flush(now=1.5)
        assert [m["seq"] for m in out] == [0]
        assert link.duplicates_dropped == 1


# ---------------------------------------------------------------------------
# policy / chaos-plan validation
# ---------------------------------------------------------------------------


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(host_chaos=HostChaosPlan()),  # requires hosts
            dict(worker_chaos=object()),  # applies to worker processes only
            dict(hosts=(HostSpec(name="a"),), host_max_failures=0),
            dict(hosts=(HostSpec(name="a"),), handshake_timeout=0.0),
            dict(hosts=(HostSpec(name="a"),), adaptive_reps=True),
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)

    def test_hosts_policy_needs_processes(self):
        assert ExecutionPolicy(hosts=(HostSpec(name="a"),)).needs_processes

    def test_host_chaos_plan_validates_fields(self):
        with pytest.raises(ValueError, match="first_idx"):
            HostChaosPlan(partition=(("a", -1, 1.0),))
        with pytest.raises(ValueError, match="heal_seconds"):
            HostChaosPlan(partition=(("a", 0, -1.0),))
        with pytest.raises(ValueError, match="message index"):
            HostChaosPlan(drop=(("a", -1),))
        with pytest.raises(ValueError, match="1-based"):
            HostChaosPlan(dead_host=(("a", 0),))
        with pytest.raises(ValueError, match="delay"):
            HostChaosPlan(slow_host=(("a", -0.1),))


# ---------------------------------------------------------------------------
# integration: real worker subprocesses over the wire
# ---------------------------------------------------------------------------


def _hosts(*specs):
    return tuple(specs)


class TestRemoteExecution:
    def test_clean_two_host_run_bit_identical(self, tmp_path):
        spec = _spec()
        path = tmp_path / "remote.jsonl"
        result = _remote(
            spec,
            _hosts(HostSpec(name="alpha", slots=2), HostSpec(name="beta")),
            journal=str(path),
        )
        assert _rows_key(result.rows) == _rows_key(_serial_rows(23))
        assert result.manifest.cells_completed == result.manifest.cells_total
        assert not result.manifest.failures
        assert not result.manifest.host_failures
        assert not result.manifest.degraded_to_local

        state = load_journal(path)
        assert set(state.provenance) == set(state.completed)
        hosts_seen = set()
        for prov in state.provenance.values():
            assert prov["transport"] == "remote"
            assert prov["host"] in {"alpha", "beta"}
            assert prov["attempt"] >= 1
            hosts_seen.add(prov["host"])
        assert hosts_seen  # at least one host did work
        stats = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "stats"
        ][-1]
        assert stats["scheduler"] == "lease"
        by_name = {h["name"]: h for h in stats["hosts"]}
        assert set(by_name) == {"alpha", "beta"}
        assert sum(h["cells"] for h in stats["hosts"]) == len(state.completed)
        assert not any(h["quarantined"] for h in stats["hosts"])

    def test_fingerprint_mismatch_quarantines_host_not_sweep(self):
        """A host pinned to the wrong code hash is refused at handshake;
        the remaining verified host completes the sweep alone."""
        spec = _spec(repetitions=1)
        result = _remote(
            spec,
            _hosts(
                HostSpec(name="good"),
                HostSpec(name="divergent", fingerprint="0" * 16),
            ),
        )
        assert _rows_key(result.rows) == _rows_key(
            execute_sweep(spec).rows
        )
        assert not result.manifest.failures
        assert result.manifest.hosts_quarantined == 1
        [hf] = result.manifest.host_failures
        assert hf.host == "divergent"
        assert "fingerprint mismatch" in hf.detail and "code:" in hf.detail
        assert not result.manifest.degraded_to_local
        assert "host(s) quarantined" in result.manifest.summary()

    def test_all_hosts_refused_degrades_to_local_fallback(self):
        spec = _spec(repetitions=1)
        result = _remote(
            spec,
            _hosts(HostSpec(name="wrong", fingerprint="f" * 16)),
        )
        assert _rows_key(result.rows) == _rows_key(execute_sweep(spec).rows)
        assert result.manifest.degraded_to_local
        assert result.manifest.hosts_quarantined == 1
        assert not result.manifest.failures
        assert "degraded to local pool" in result.manifest.summary()

    def test_no_fallback_quarantines_remaining_cells_as_host_domain(self):
        spec = _spec(repetitions=1)
        result = _remote(
            spec,
            _hosts(HostSpec(name="wrong", fingerprint="f" * 16)),
            local_fallback=False,
        )
        assert result.manifest.cells_completed == 0
        assert not result.manifest.degraded_to_local
        assert len(result.manifest.failures) == result.manifest.cells_total
        assert all(f.kind == "host" for f in result.manifest.failures)
        assert all(
            "every host quarantined" in f.detail
            for f in result.manifest.failures
        )

    def test_acceptance_dead_host_plus_partition_heal(self, tmp_path):
        """ISSUE 10 acceptance: one host killed, one partitioned-then-
        healed, a slow-but-healthy survivor — zero cells lost, the dead
        host quarantined as one failure domain, rows bit-identical."""
        spec = _spec(repetitions=4)
        path = tmp_path / "chaos.jsonl"
        plan = HostChaosPlan(
            dead_host=(("b", 1),),  # dies on every lease it is granted
            partition=(("c", 4, 1.0),),  # goes quiet, heals 1s later
            # Slowing both survivors keeps the sweep long enough that
            # b's respawn-die-respawn cycle (two worker launches, ~0.5s
            # of interpreter startup each) reliably crosses its budget.
            slow_host=(("a", 0.35), ("c", 0.35)),
        )
        result = _remote(
            spec,
            _hosts(HostSpec(name="a"), HostSpec(name="b"), HostSpec(name="c")),
            journal=str(path),
            host_chaos=plan,
            host_max_failures=1,
            lease_timeout=0.4,
        )
        assert _rows_key(result.rows) == _rows_key(_serial_rows(23, 4))
        assert result.manifest.cells_completed == result.manifest.cells_total
        assert not result.manifest.failures  # zero cells lost
        assert not result.manifest.degraded_to_local
        quarantined = {hf.host for hf in result.manifest.host_failures}
        assert "b" in quarantined  # the dead host is one failure domain
        assert "c" not in quarantined  # partitioned/slow is NOT charged
        assert "a" not in quarantined  # slow is NOT charged
        state = load_journal(path)
        assert set(state.completed) == {
            spec.cell_seed(*c) for c in spec.cells()
        }
        stats = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if json.loads(line).get("kind") == "stats"
        ][-1]
        assert stats["hosts_quarantined"] >= 1
        by_name = {h["name"]: h for h in stats["hosts"]}
        assert by_name["b"]["quarantined"]


def _exit_on_two_machines(m: int, eps: float, seed: int):
    """Kills whatever worker evaluates an m=2 cell (a native crash)."""
    if m == 2:
        os._exit(70)
    return random_instance(6, m, eps, seed=seed)


def _crash_spec() -> SweepSpec:
    return _spec(
        epsilons=[0.3],
        machine_counts=[1, 2],
        algorithms=["greedy"],
        workload=_exit_on_two_machines,
        repetitions=1,
    )


class TestCrashingCell:
    def test_remote_link_quarantines_the_cell_as_crash(self):
        """The cell is charged a death per lost worker and quarantined as
        ``crash`` after ``retries + 1`` of them; the host, still within
        its failure budget, survives."""
        result = _remote(
            _crash_spec(),
            _hosts(HostSpec(name="a")),
            backend="scalar",
            host_max_failures=5,
        )
        [failure] = result.manifest.failures
        assert (failure.machines, failure.kind, failure.attempts) == (2, "crash", 3)
        assert [row.machines for row in result.rows] == [1]
        assert not result.manifest.host_failures
        assert not result.manifest.degraded_to_local


class TestForkSafety:
    """The controller holds no threads whenever it forks a local link."""

    def test_single_threaded_at_every_fork(self, monkeypatch):
        before = set(threading.enumerate())
        extra_threads = []
        real_fork = os.fork

        def fork():
            extra_threads.append(set(threading.enumerate()) - before)
            return real_fork()

        monkeypatch.setattr(os, "fork", fork)
        # Initial spawn, then a respawn after every crash of the m=2 cell.
        local = execute_sweep(_crash_spec(), ExecutionPolicy(workers=1, retries=1))
        spawned = len(extra_threads)
        # The local fallback once the only host is refused, respawning too.
        fallback = _remote(
            _crash_spec(),
            _hosts(HostSpec(name="wrong", fingerprint="f" * 16)),
            workers=1,
            retries=1,
        )
        assert spawned >= 3 and len(extra_threads) >= spawned + 3
        assert extra_threads == [set()] * len(extra_threads)
        assert set(threading.enumerate()) == before
        for result in (local, fallback):
            assert [f.kind for f in result.manifest.failures] == ["crash"]
        assert fallback.manifest.degraded_to_local


# ---------------------------------------------------------------------------
# hypothesis: partition -> expiry -> re-dispatch -> heal -> duplicate
# delivery converges to the same journal rows (pure state machines)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _tiny_cells_and_rows():
    spec = _spec(
        base_seed=31,
        epsilons=[0.3],
        machine_counts=[2],
        algorithms=["greedy"],
        workload=partial(random_instance, 4),
        repetitions=3,
    )
    cells = [
        (eps, m, rep, spec.cell_seed(eps, m, rep)) for eps, m, rep in spec.cells()
    ]
    rows = {
        seed: run_cell(spec, eps, m, rep, {}) for eps, m, rep, seed in cells
    }
    return spec, tuple(cells), rows


def _network_run(first_idx: int, heal_after: float, decisions: list[int]):
    """Drive CellQueue + HostLink through one fault interleaving.

    Worker 0 lives on partitioned host A, worker 1 on healthy host B.
    Each decision step picks an action; results travel through the
    links (encoded, CRC'd, possibly held by the partition).  The drain
    tail completes every cell via B, then heals A so its stale backlog
    — including duplicates of completed cells — must dedup cleanly.
    Returns the completed rows mapping.
    """
    _, cells, rows_by_seed = _tiny_cells_and_rows()
    queue = CellQueue(list(cells), lease_timeout=0.5, speculate=True)
    chaos = HostChaosPlan(
        partition=(("A", first_idx, heal_after),),
        duplicate=(("A", first_idx),),
    )
    links = {0: HostLink("A", chaos), 1: HostLink("B", chaos)}
    seqs = {0: 0, 1: 0}
    clock = 0.0

    def deliver(messages):
        for message in messages:
            outcome, _ = queue.complete(
                message["from"], message["seed"], rows_by_seed[message["seed"]]
            )
            assert outcome in ("win", "duplicate", "stale")

    def send_result(worker: int):
        lease = queue.leases.get(worker)
        if lease is None:
            return
        seqs[worker] += 1
        raw = encode_message(
            "result", seqs[worker], seed=lease.seed, **{"from": worker}
        )
        deliver(links[worker].receive(raw, clock))

    for decision in decisions:
        clock += 0.1
        action = decision % 4
        worker = (decision // 4) % 2
        if action == 0:
            if worker not in queue.leases:
                queue.next_lease(worker, clock)
        elif action == 1:
            queue.heartbeat(worker, clock)
        elif action == 2:
            send_result(worker)
        else:
            for lease in queue.expired(clock):
                queue.release(
                    lease.worker, "expired: partition", charge_cell=False
                )
        deliver(links[0].flush(clock))

    # Drain: B finishes everything the partition stranded.
    while not queue.done:
        clock += 0.6
        for lease in queue.expired(clock):
            queue.release(lease.worker, "expired: drain", charge_cell=False)
        if 1 not in queue.leases:
            if queue.next_lease(1, clock) is None and not queue.done:
                clock += 0.6
                continue
        send_result(1)
    # Heal: A's stale backlog (with an injected duplicate) lands late.
    clock += heal_after + 1.0
    deliver(links[0].flush(clock))
    return queue.completed


class TestNetworkConvergence:
    @given(
        first_idx=st.integers(min_value=0, max_value=3),
        heal_after=st.floats(min_value=0.1, max_value=2.0),
        decisions=st.lists(
            st.integers(min_value=0, max_value=7), min_size=0, max_size=30
        ),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_partition_interleaving_converges(
        self, first_idx, heal_after, decisions
    ):
        """Every partition/expiry/re-dispatch/heal/duplicate interleaving
        yields the same completed rows, with no speculation mismatch."""
        _, cells, rows_by_seed = _tiny_cells_and_rows()
        completed = _network_run(first_idx, heal_after, decisions)
        assert set(completed) == {seed for _, _, _, seed in cells}
        for seed, rows in completed.items():
            assert rows == rows_by_seed[seed]
