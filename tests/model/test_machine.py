"""Unit tests for non-preemptive machine state."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.job import Job
from repro.model.machine import MachineState
from repro.utils.tolerances import TIME_EPS
from tests.offline import packer_reference


class TestCommit:
    def test_commit_and_query(self):
        ms = MachineState(0)
        c = ms.commit(Job(0.0, 2.0, 5.0, job_id=1), start=0.0)
        assert c.end == 2.0
        assert len(ms) == 1

    def test_rejects_overlap(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 2.0, 5.0, job_id=1), start=0.0)
        with pytest.raises(ValueError, match="overlaps"):
            ms.commit(Job(0.0, 2.0, 5.0, job_id=2), start=1.0)

    def test_allows_back_to_back(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 2.0, 5.0, job_id=1), start=0.0)
        ms.commit(Job(0.0, 2.0, 5.0, job_id=2), start=2.0)
        assert ms.last_end() == 4.0

    def test_rejects_infeasible_start(self):
        ms = MachineState(0)
        with pytest.raises(ValueError, match="infeasible"):
            ms.commit(Job(1.0, 2.0, 5.0, job_id=1), start=0.5)  # before release
        with pytest.raises(ValueError, match="infeasible"):
            ms.commit(Job(1.0, 2.0, 5.0, job_id=1), start=4.0)  # misses deadline

    def test_commitments_sorted_by_start(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 1.0, 20.0, job_id=1), start=5.0)
        ms.commit(Job(0.0, 1.0, 20.0, job_id=2), start=1.0)
        starts = [c.start for c in ms.commitments]
        assert starts == sorted(starts)


class TestOutstanding:
    def test_zero_when_empty(self):
        assert MachineState(0).outstanding(3.0) == 0.0

    def test_full_before_start(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 2.0, 10.0, job_id=1), start=4.0)
        assert ms.outstanding(0.0) == 2.0

    def test_partial_mid_execution(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 2.0, 10.0, job_id=1), start=0.0)
        assert ms.outstanding(0.5) == pytest.approx(1.5)

    def test_zero_after_completion(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 2.0, 10.0, job_id=1), start=0.0)
        assert ms.outstanding(3.0) == 0.0

    def test_sums_multiple_commitments(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 1.0, 20.0, job_id=1), start=0.0)
        ms.commit(Job(0.0, 2.0, 20.0, job_id=2), start=5.0)
        assert ms.outstanding(0.5) == pytest.approx(0.5 + 2.0)


def _recomputed(ms, t):
    """``ms.outstanding(t)`` on a fresh copy that was never queried.

    Committing the same commitments in start order gives the same arrays
    and prefix sums, so this is the load computed without the memo.
    """
    fresh = MachineState(ms.index)
    for c in ms.commitments:
        fresh.commit(c.job, c.start)
    return fresh.outstanding(t)


#: Query times: a few fixed ones (so queries repeat) and arbitrary ones.
_times = st.sampled_from([0.0, 1.0, 2.5, 7.0, 12.25, 40.0]) | st.floats(0.0, 60.0)
_commits = st.tuples(
    st.just("commit"), st.floats(0.0, 50.0), st.floats(0.01, 6.0)
)
_queries = st.tuples(st.just("query"), _times)


class TestOutstandingMemo:
    @given(st.lists(_commits | _queries, max_size=40))
    def test_interleaved_commits_and_queries_match_a_recomputation(self, ops):
        ms = MachineState(0)
        for op in ops:
            if op[0] == "commit":
                _, start, processing = op
                try:  # overlapping starts are refused and change nothing
                    ms.commit(Job(0.0, processing, 1e3), start)
                except ValueError:
                    pass
            else:
                t = op[1]
                assert ms.outstanding(t).hex() == _recomputed(ms, t).hex()

    def test_an_insert_before_the_last_commitment_updates_a_repeated_query(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 2.0, 100.0), 10.0)
        assert ms.outstanding(1.0) == 2.0
        ms.commit(Job(0.0, 3.0, 100.0), 4.0)  # lands before the last one
        assert ms.outstanding(1.0) == 5.0
        assert ms.outstanding(5.0) == 4.0
        ms.commit(Job(0.0, 0.5, 100.0), 1.0)
        assert ms.outstanding(5.0) == 4.0  # [1, 1.5) ended before t=5
        assert ms.outstanding(1.0) == 5.5

    @given(
        st.lists(_commits, max_size=8),
        st.lists(_commits, max_size=8),
        st.lists(_commits, max_size=8),
        st.lists(_times, min_size=1, max_size=6),
    )
    def test_clones_stay_independent(self, shared, left, right, times):
        def commit_all(ms, commits):
            for _, start, processing in commits:
                try:
                    ms.commit(Job(0.0, processing, 1e3), start)
                except ValueError:
                    pass

        original = MachineState(3)
        commit_all(original, shared)
        for t in times:
            original.outstanding(t)  # warm the memo before cloning
        copy = original.clone()
        commit_all(original, left)
        commit_all(copy, right)
        for t in times:
            for ms in (original, copy):
                assert ms.outstanding(t).hex() == _recomputed(ms, t).hex()


class TestFrontierAndFits:
    def test_completion_frontier_empty(self):
        assert MachineState(0).completion_frontier(2.0) == 2.0

    def test_completion_frontier_busy(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 3.0, 10.0, job_id=1), start=1.0)
        assert ms.completion_frontier(0.0) == 4.0
        assert ms.completion_frontier(5.0) == 5.0

    def test_append_start_respects_release(self):
        ms = MachineState(0)
        job = Job(3.0, 1.0, 10.0, job_id=1)
        assert ms.append_start(job, 1.0) == 3.0

    def test_append_start_respects_frontier(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 4.0, 10.0, job_id=1), start=0.0)
        job = Job(1.0, 1.0, 10.0, job_id=2)
        assert ms.append_start(job, 1.0) == 4.0

    def test_fits_true_false(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 4.0, 10.0, job_id=1), start=0.0)
        assert ms.fits(Job(0.0, 1.0, 6.0, job_id=2), t=0.0)
        assert not ms.fits(Job(0.0, 3.0, 6.0, job_id=3), t=0.0)

    def test_busy_and_idle(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 2.0, 10.0, job_id=1), start=1.0)
        assert ms.busy_at(1.5)
        assert not ms.busy_at(0.5)
        assert not ms.is_idle_from(0.0)
        assert ms.is_idle_from(3.5)


class TestFreeIntervals:
    """Idle gaps, as :meth:`MachineState.earliest_feasible_start` walks them."""

    def test_empty_machine_single_gap(self):
        # The whole window [0, 10) is one gap.
        ms = MachineState(0)
        assert ms.earliest_feasible_start(Job(0.0, 10.0, 10.0)) == 0.0
        assert ms.earliest_feasible_start(Job(2.0, 8.0, 10.0)) == 2.0
        # A window no longer than TIME_EPS is no gap.
        assert ms.earliest_feasible_start(Job(1.0, TIME_EPS / 2, 1.0 + TIME_EPS / 2)) is None

    def test_gaps_around_commitments(self):
        # Gaps [0, 2), [4, 7) and [9, deadline).
        ms = MachineState(0)
        ms.commit(Job(0.0, 2.0, 20.0, job_id=1), start=2.0)
        ms.commit(Job(0.0, 2.0, 20.0, job_id=2), start=7.0)
        cases = [
            (Job(0.0, 2.0, 10.0), 0.0),  # fills [0, 2)
            (Job(0.0, 2.5, 10.0), 4.0),  # too long for [0, 2)
            (Job(5.0, 2.0, 10.0), 5.0),  # released inside [4, 7)
            (Job(2.5, 1.0, 10.0), 4.0),  # released inside a commitment
            (Job(7.5, 1.0, 10.0), 9.0),
            (Job(0.0, 3.5, 10.0), None),  # longer than every gap
            (Job(7.5, 1.0, 9.5), None),  # [9, 9.5) is clipped by the deadline
            (Job(0.0, 1.0, 9.5), 0.0),
        ]
        assert [ms.earliest_feasible_start(job) for job, _ in cases] == [
            start for _, start in cases
        ]

    def test_gap_clipped_to_time_eps_is_no_gap(self):
        # The deadline clips the gap [0, 2) to exactly TIME_EPS.
        ms = MachineState(0)
        ms.commit(Job(0.0, 1.0, 20.0, job_id=1), start=2.0)
        assert ms.earliest_feasible_start(Job(0.0, TIME_EPS / 2, TIME_EPS)) is None
        assert ms.earliest_feasible_start(Job(0.0, TIME_EPS / 2, 2 * TIME_EPS)) == 0.0

    def test_committed_load(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 2.0, 20.0, job_id=1), start=0.0)
        ms.commit(Job(0.0, 3.0, 20.0, job_id=2), start=2.0)
        assert ms.committed_load() == 5.0

    def test_clone_independent(self):
        ms = MachineState(0)
        ms.commit(Job(0.0, 2.0, 20.0, job_id=1), start=0.0)
        clone = ms.clone()
        clone.commit(Job(0.0, 2.0, 20.0, job_id=2), start=2.0)
        assert len(ms) == 1 and len(clone) == 2


#: Gaps and lengths around ``TIME_EPS``: commitments that touch end to
#: start, overlap by less than ``TIME_EPS`` or nest inside the previous
#: one's tail, and jobs shorter than ``TIME_EPS``.
_EDGE_GAPS = st.sampled_from([-TIME_EPS / 2, 0.0, TIME_EPS / 2, TIME_EPS, 1.5 * TIME_EPS])
_EDGE_LENGTHS = st.sampled_from([TIME_EPS / 4, TIME_EPS, 2 * TIME_EPS, 1.0])


@st.composite
def _timeline_and_job(draw):
    ms = packer_reference.MachineState(0)
    t, previous = 0.0, -1.0
    for jid in range(draw(st.integers(0, 8))):
        start = t + draw(_EDGE_GAPS | st.floats(0.0, 3.0))
        if start < 0.0 or start <= previous:  # starts stay distinct
            start = t
        p = draw(_EDGE_LENGTHS | st.floats(1e-10, 2.0))
        ms.commit(Job(start, p, start + p, job_id=jid), start)
        t, previous = max(t, start + p), start
    release = draw(st.sampled_from([0.0, t]) | st.floats(0.0, t + 1.0))
    p = draw(_EDGE_LENGTHS | st.floats(1e-10, 3.0))
    deadline = release + p + draw(st.sampled_from([0.0, TIME_EPS / 2, TIME_EPS]) | st.floats(0.0, 4.0))
    return ms, Job(release, p, deadline, job_id=99)


def _committable(ms, job, start):
    try:
        ms.clone().commit(job, start)
    except ValueError:
        return False
    return True


@given(_timeline_and_job())
def test_earliest_feasible_start_matches_gap_list(timeline_and_job):
    # The walk against the idle-gap list it replaced: the walk's start can
    # always be committed, and it is the list's start, bit for bit,
    # wherever that start can be committed (see packer_reference).
    ms, job = timeline_and_job
    start = ms.earliest_feasible_start(job)
    assert start is None or _committable(ms, job, start)
    reference = packer_reference.earliest_feasible_start(ms, job)
    if reference is not None and _committable(ms, job, reference):
        assert start is not None and start.hex() == reference.hex()
