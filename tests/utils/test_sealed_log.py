"""The sealed log under both journals: the old writers' bytes, torn tails."""

import os
import tempfile
from functools import partial
from pathlib import Path
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.snapshotter import (
    DecisionJournal,
    load_decision_journal,
    service_fingerprint,
)
from repro.utils.sealed_log import rewrite
from repro.workloads.journal import JournalError, SweepJournal, load_journal
from repro.workloads.random_instances import random_instance
from repro.workloads.sweep import SweepRow, SweepSpec
from tests.utils import journal_reference as reference

SPEC = SweepSpec(
    epsilons=[0.3],
    machine_counts=[1],
    algorithms=["greedy"],
    workload=partial(random_instance, 6),
    repetitions=2,
    base_seed=5,
)
SERVICE = service_fingerprint("threshold", 2, 0.4)

_finite = st.floats(allow_nan=False, allow_infinity=False)
_row = st.builds(
    SweepRow,
    epsilon=_finite,
    machines=st.integers(1, 8),
    repetition=st.integers(0, 99),
    algorithm=st.sampled_from(["greedy", "threshold"]),
    accepted_load=_finite,
    accepted_count=st.integers(0, 500),
    n_jobs=st.integers(0, 500),
    opt_lower=_finite,
    opt_upper=_finite,
    opt_exact=st.booleans(),
    guarantee=st.none() | _finite,
)
_prov = st.none() | st.fixed_dictionaries({
    "host": st.sampled_from(["local", "a"]),
    "slot": st.integers(0, 3),
    "attempt": st.integers(1, 3),
    "lease_ms": _finite,
    "speculative": st.booleans(),
})
#: A resume first tears the last line at a position drawn from this.
_tear = st.tuples(st.just("resume"), st.integers(0, 2**16))
_sweep_op = st.one_of(
    st.tuples(
        st.just("cell"), st.integers(0, 3) | st.integers(0, 2**63 - 1), _finite,
        st.integers(1, 8), st.integers(0, 99), st.lists(_row, min_size=1, max_size=3),
        _prov,
    ),
    st.tuples(st.just("failure"), st.fixed_dictionaries({
        "seed": st.integers(0, 2**31), "kind": st.sampled_from(["crash", "timeout"]),
        "detail": st.text(max_size=20),
    })),
    st.tuples(st.just("stats"), st.fixed_dictionaries({
        "wall_seconds": _finite, "interrupted": st.booleans(),
    })),
    st.tuples(st.just("seal")),
    _tear,
    #: A salvaging resume first garbles a line between the header and the last.
    st.tuples(st.just("salvage"), st.integers(0, 2**16)),
)
_decision = st.tuples(
    st.tuples(_finite, _finite, _finite, st.none() | _finite),
    st.tuples(st.booleans(), st.none() | st.integers(0, 64), st.none() | _finite),
)
_decision_op = st.one_of(
    st.tuples(st.just("decision"), _decision),
    st.tuples(st.just("group"), st.lists(_decision, max_size=4)),
    st.tuples(st.just("seal")),
    _tear,
)


def _tear_last_line(path: Path, draw: int) -> None:
    """Cut the last line so that what is left of it does not decode."""
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    if start == 0:
        return  # the header alone: nothing to tear
    keep = draw % (len(data) - start - 1)  # at most its closing brace
    path.write_bytes(data[: start + keep])


def _garble_a_middle_line(path: Path, draw: int) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    if len(lines) > 2:
        lines[1 + draw % (len(lines) - 2)] = b"not json\n"
        path.write_bytes(b"".join(lines))


def _write_sweep(path: Path, ops, journal_cls) -> bytes:
    journal = journal_cls.create(path, SPEC)
    for op in ops:
        if op[0] == "cell":
            journal.record_cell(*op[1:])
        elif op[0] == "failure":
            journal.record_failure(op[1])
        elif op[0] == "stats":
            journal.record_stats(op[1])
        elif op[0] == "seal":
            journal.record_seal()
        else:
            journal.close()
            if op[0] == "resume":
                _tear_last_line(path, op[1])
            else:
                _garble_a_middle_line(path, op[1])
            journal, _ = journal_cls.resume(path, SPEC, salvage=op[0] == "salvage")
    journal.close()
    return path.read_bytes()


def _serve(journal, seq, decision):
    job, dec = decision
    journal.record_decision(
        seq,
        SimpleNamespace(release=job[0], processing=job[1], deadline=job[2], weight=job[3]),
        SimpleNamespace(accepted=dec[0], machine=dec[1], start=dec[2]),
    )
    return seq + 1


def _write_decisions(path: Path, ops, journal_cls) -> bytes:
    journal, seq = journal_cls.create(path, SERVICE), 0
    for op in ops:
        if op[0] == "decision":
            seq = _serve(journal, seq, op[1])
        elif op[0] == "group":
            with journal.group():
                for decision in op[1]:
                    seq = _serve(journal, seq, decision)
        elif op[0] == "seal":
            journal.seal()
        else:
            journal.close()
            _tear_last_line(path, op[1])
            journal, state = journal_cls.resume(path, SERVICE)
            seq = len(state.decisions)
    journal.close()
    return path.read_bytes()


class TestOldWritersAreTheByteOracle:
    """Driven alike, the old writers and the ones on the sealed log write
    the same bytes: create, records, seals, torn-tail and salvaging
    resumes, groups."""

    @given(ops=st.lists(_sweep_op, max_size=8))
    @settings(deadline=None, max_examples=60)  # each op commits with fsync
    def test_sweep_journal(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            new = _write_sweep(Path(tmp, "new.jsonl"), ops, SweepJournal)
            old = _write_sweep(Path(tmp, "old.jsonl"), ops, reference.SweepJournal)
        assert new == old

    @given(ops=st.lists(_decision_op, max_size=8))
    @settings(deadline=None, max_examples=60)
    def test_decision_log(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            new = _write_decisions(Path(tmp, "new.jsonl"), ops, DecisionJournal)
            old = _write_decisions(
                Path(tmp, "old.jsonl"), ops, reference.DecisionJournal
            )
        assert new == old

    @given(
        ops=st.lists(_sweep_op, max_size=6),
        shard=st.none() | st.tuples(st.integers(0, 3), st.integers(4, 5)),
        cells=st.integers(0, 9),
        salvaged=st.booleans(),
    )
    @settings(deadline=None, max_examples=30)
    def test_atomic_rewrite(self, ops, shard, cells, salvaged):
        # The rewrite under salvage and merge output, on any record lines.
        seal = dict(fingerprint={"grid": cells}, shard=shard, cells=cells,
                    salvaged=salvaged)
        with tempfile.TemporaryDirectory() as tmp:
            lines = _write_sweep(Path(tmp, "src.jsonl"), ops, SweepJournal)
            raw = lines.splitlines(keepends=True)
            rewrite(Path(tmp, "new.jsonl"), [r.decode() for r in raw],
                    JournalError, "journal", **seal).close()
            reference._write_sealed_lines(Path(tmp, "old.jsonl"), raw, **seal)
            assert not os.path.exists(Path(tmp, "new.jsonl.tmp"))
            assert Path(tmp, "new.jsonl").read_bytes() == Path(tmp, "old.jsonl").read_bytes()


def _cuts_inside_last_record(path: Path):
    """Each prefix of the file that ends inside its last record, and
    whether that record lost only its newline."""
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    for cut in range(start + 1, len(data)):
        yield data[:cut], cut == len(data) - 1


class TestTornTail:
    """Cut inside the last record, resume, append and seal: the load is
    sealed, with the records of the uncut prefix and the appended one."""

    def test_sweep_journal(self, tmp_path):
        rows = [SweepRow(0.3, 1, rep, "greedy", 2.5, 2, 6, 3.0, 3.0, True, None)
                for rep in range(3)]
        path = tmp_path / "sweep.jsonl"
        with SweepJournal.create(path, SPEC) as journal:
            for rep, row in enumerate(rows):
                journal.record_cell(100 + rep, 0.3, 1, rep, [row],
                                    provenance={"slot": 0, "lease_ms": 1.5})
        for i, (prefix, newline_only) in enumerate(_cuts_inside_last_record(path)):
            torn = tmp_path / f"cut{i}.jsonl"
            torn.write_bytes(prefix)
            journal, state = SweepJournal.resume(torn, SPEC)
            # Only a record that lost nothing but its newline survives.
            kept = 3 if newline_only else 2
            assert state.truncated_tail == (kept == 2)
            assert sorted(state.completed) == [100 + rep for rep in range(kept)]
            with journal:
                journal.record_cell(200, 0.3, 1, 0, rows[:1])
                journal.record_seal()
            loaded = load_journal(torn)
            assert loaded.sealed and loaded.integrity == "verified"
            assert list(loaded.completed) == [100 + rep for rep in range(kept)] + [200]
            assert loaded.seal["cells"] == kept + 1

    def test_decision_log(self, tmp_path):
        path = tmp_path / "log.jsonl"
        decisions = [((float(i), 1.0, float(i) + 2.0, None), (True, i % 2, float(i)))
                     for i in range(4)]
        journal = DecisionJournal.create(path, SERVICE)
        for seq, decision in enumerate(decisions[:3]):
            _serve(journal, seq, decision)
        journal.close()
        for i, (prefix, newline_only) in enumerate(_cuts_inside_last_record(path)):
            torn = tmp_path / f"cut{i}.jsonl"
            torn.write_bytes(prefix)
            journal, state = DecisionJournal.resume(torn, SERVICE)
            kept = 3 if newline_only else 2
            assert len(state.decisions) == kept
            _serve(journal, kept, decisions[3])
            journal.seal()
            journal.close()
            loaded = load_decision_journal(torn)
            assert loaded.sealed
            assert loaded.decisions == [list(d) for _, d in decisions[:kept]] + [
                list(decisions[3][1])
            ]
