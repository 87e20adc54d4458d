import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msjlab import AuditResult, snf_allocation
from reference import (QueueJob, QueueState, audit_work_conservation,
                       schedule_fcfs, schedule_modified_fcfs, schedule_snf,
                       schedule_snf_np)


def state(entries, num_types):
    """entries: list of (type_index, in_service)."""
    return QueueState(
        jobs=tuple(QueueJob(job_id=k, type_index=t, in_service=s)
                   for k, (t, s) in enumerate(entries)),
        num_types=num_types)


class TestFcfs:
    # types ordered by need: type 0 has l=1, type 1 has l=3
    NEEDS = (1, 3)

    def test_head_of_line_blocking(self):
        st_ = state([(1, False), (0, False)], 2)
        sched = schedule_fcfs(st_, n=3, needs=self.NEEDS)
        assert sched.serve == {0}  # later small job is NOT placed

    def test_pack_until_blocked(self):
        st_ = state([(0, False)] * 3, 1)
        sched = schedule_fcfs(st_, n=5, needs=(2,))
        assert sched.serve == {0, 1}

    def test_empty_queue(self):
        sched = schedule_fcfs(QueueState(jobs=(), num_types=1), n=4, needs=(1,))
        assert sched.serve == frozenset()

    def test_in_service_never_removed(self):
        st_ = state([(1, True), (1, False)], 2)
        sched = schedule_fcfs(st_, n=3, needs=self.NEEDS)
        assert 0 in sched.serve and 1 not in sched.serve


class TestSnf:
    def test_greedy_packing(self):
        st_ = state([(0, False), (0, False), (1, False), (1, False)], 2)
        sched = schedule_snf(st_, n=5, needs=(1, 3))
        assert sched.serve == {0, 1, 2}  # z = (2, 1)

    def test_floor_division(self):
        st_ = state([(1, False), (1, False)], 2)
        sched = schedule_snf(st_, n=4, needs=(1, 3))
        assert len(sched.serve) == 1  # z = (0, 1)

    def test_empty(self):
        sched = schedule_snf(QueueState(jobs=(), num_types=2), n=4, needs=(1, 3))
        assert sched.serve == frozenset()

    def test_allocation_examples(self):
        assert snf_allocation((2, 2), 5, (1, 3)).tolist() == [2, 1]
        assert snf_allocation((0, 2), 4, (1, 3)).tolist() == [0, 1]
        assert snf_allocation((0, 0), 4, (1, 3)).tolist() == [0, 0]
        # each row of an (S, I) array is packed on its own
        assert snf_allocation([(2, 2), (0, 2), (0, 0)], 4, (1, 3)).tolist() == [
            [2, 0], [0, 1], [0, 0]]

    def test_earliest_arrival_within_type(self):
        st_ = state([(1, False), (1, False), (1, False)], 2)
        sched = schedule_snf(st_, n=7, needs=(1, 3))
        assert sched.serve == {0, 1}


class TestSnfNp:
    def test_admits_small_around_blocked_large(self):
        # one l=3 in service; waiting [l=3, l=1]; idle 2 admits only the l=1
        st_ = state([(1, True), (1, False), (0, False)], 2)
        sched = schedule_snf_np(st_, n=5, needs=(1, 3))
        assert sched.serve == {0, 2}

    def test_nothing_waiting_unchanged(self):
        st_ = state([(1, True)], 2)
        sched = schedule_snf_np(st_, n=5, needs=(1, 3))
        assert sched.serve == {0}

    def test_greedy_admission_order(self):
        # idle 6, waiting [l=3, l=1, l=3]: admit l=1, then the earlier l=3
        st_ = state([(1, False), (0, False), (1, False)], 2)
        sched = schedule_snf_np(st_, n=6, needs=(1, 3))
        assert sched.serve == {0, 1}

    def test_equal_need_tie_broken_by_arrival(self):
        # two types with the same need: earliest arrival admitted first
        st_ = state([(1, False), (0, False)], 2)
        sched = schedule_snf_np(st_, n=2, needs=(2, 2))
        assert sched.serve == {0}


class TestModifiedFcfs:
    def test_blocked_despite_fitting(self):
        st_ = state([(1, True), (0, False)], 2)
        sched = schedule_modified_fcfs(st_, n=5, l_max=3, needs=(1, 3))
        assert sched.serve == {0}  # idle 2 < l_max, small job not admitted

    def test_admitted_at_threshold(self):
        st_ = state([(0, True), (0, True), (1, False)], 2)
        sched = schedule_modified_fcfs(st_, n=5, l_max=3, needs=(1, 3))
        assert sched.serve == {0, 1, 2}  # busy 2 <= n - l_max

    def test_empty_system_admits(self):
        st_ = state([(1, False)], 2)
        sched = schedule_modified_fcfs(st_, n=5, l_max=3, needs=(1, 3))
        assert sched.serve == {0}


class TestAudit:
    def test_idling_with_work_is_violation(self):
        trajectory = [((2, 0), (0, 0))]  # two waiting jobs, nothing served
        res = audit_work_conservation(trajectory, n=4, delta_prime=0.0,
                                      needs=(1, 3))
        assert res.violations == 1
        assert res.worst_slack < 0

    def test_empty_trajectory(self):
        res = audit_work_conservation([], n=4, delta_prime=0.0, needs=(1,))
        assert res == AuditResult(violations=0, worst_slack=float("inf"))

    def test_fully_served_is_clean(self):
        trajectory = [((2, 1), (2, 1)), ((1, 0), (1, 0))]
        res = audit_work_conservation(trajectory, n=8, delta_prime=0.0,
                                      needs=(1, 3))
        assert res.violations == 0
        assert res.worst_slack == 0.0


# random-state properties -----------------------------------------------

@st.composite
def random_states(draw):
    num_types = draw(st.integers(1, 4))
    needs = tuple(sorted(draw(st.lists(st.integers(1, 6), min_size=num_types,
                                       max_size=num_types))))
    n = draw(st.integers(max(needs), 24))
    entries = draw(st.lists(st.integers(0, num_types - 1), max_size=30))
    jobs = tuple(QueueJob(job_id=k, type_index=t, in_service=False)
                 for k, t in enumerate(entries))
    return QueueState(jobs=jobs, num_types=num_types), n, needs


@given(random_states())
@settings(max_examples=300, deadline=None)
def test_feasibility_all_policies(case):
    st_, n, needs = case
    for sched in (schedule_fcfs(st_, n, needs), schedule_snf(st_, n, needs),
                  schedule_snf_np(st_, n, needs),
                  schedule_modified_fcfs(st_, n, max(needs), needs)):
        used = sum(needs[j.type_index] for j in st_.jobs if j.job_id in sched.serve)
        assert used <= n
        per_type = [0] * st_.num_types
        for j in st_.jobs:
            if j.job_id in sched.serve:
                per_type[j.type_index] += 1
        assert all(z <= x for z, x in zip(per_type, st_.x))


@given(random_states())
@settings(max_examples=300, deadline=None)
def test_snf_depends_on_counts_only(case):
    st_, n, needs = case
    sched = schedule_snf(st_, n, needs)
    per_type = [0] * st_.num_types
    for j in st_.jobs:
        if j.job_id in sched.serve:
            per_type[j.type_index] += 1
    assert per_type == snf_allocation(st_.x, n, needs).tolist()
    # relabeling job ids leaves the count allocation unchanged
    relabeled = QueueState(
        jobs=tuple(QueueJob(job_id=10 * j.job_id + 7, type_index=j.type_index,
                            in_service=j.in_service) for j in st_.jobs),
        num_types=st_.num_types)
    sched2 = schedule_snf(relabeled, n, needs)
    per_type2 = [0] * st_.num_types
    for j in relabeled.jobs:
        if j.job_id in sched2.serve:
            per_type2[j.type_index] += 1
    assert per_type2 == per_type


@given(random_states())
@settings(max_examples=300, deadline=None)
def test_snf_idempotent(case):
    st_, n, needs = case
    sched = schedule_snf(st_, n, needs)
    applied = QueueState(
        jobs=tuple(QueueJob(job_id=j.job_id, type_index=j.type_index,
                            in_service=j.job_id in sched.serve)
                   for j in st_.jobs),
        num_types=st_.num_types)
    assert schedule_snf(applied, n, needs).serve == sched.serve
