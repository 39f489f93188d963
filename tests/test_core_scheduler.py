"""Tests for the Eq. 1 subgraph scheduler and topN lists."""

import numpy as np
import pytest

from repro.common import SchedulingError
from repro.core import SubgraphScheduler


def make_scheduler(
    n_blocks=8,
    n_chips=2,
    dense=None,
    alpha=1.2,
    beta=1.5,
    top_n=4,
    m=4,
    use_scores=True,
):
    block_chip = np.arange(n_blocks) % n_chips
    is_dense = np.zeros(n_blocks, dtype=bool)
    if dense:
        is_dense[list(dense)] = True
    return SubgraphScheduler(
        block_chip=block_chip,
        is_dense_block=is_dense,
        first_block=0,
        last_block=n_blocks - 1,
        n_chips=n_chips,
        alpha=alpha,
        beta=beta,
        top_n=top_n,
        update_period_m=m,
        use_scores=use_scores,
    )


class TestScoreboard:
    def test_eq1_nondense(self):
        s = make_scheduler(alpha=1.2, beta=1.5)
        s.add_buffered(0, 10)
        s.add_spilled(0, 4)
        # score = (pwb * alpha + fl) * beta for non-dense
        assert s.scores()[0] == pytest.approx((6 * 1.2 + 4) * 1.5)

    def test_eq1_dense_no_beta(self):
        s = make_scheduler(dense={1}, alpha=1.2, beta=1.5)
        s.add_buffered(1, 10)
        assert s.scores()[1] == pytest.approx(10 * 1.2)

    def test_beta_prioritizes_nondense_at_equal_load(self):
        s = make_scheduler(dense={1})
        s.add_buffered(0, 10)
        s.add_buffered(1, 10)
        scores = s.scores()
        assert scores[0] > scores[1]

    def test_alpha_weighs_buffered_over_spilled(self):
        s = make_scheduler(alpha=2.0)
        s.add_buffered(0, 10)
        s.add_buffered(2, 10)
        s.add_spilled(2, 10)  # block 2: all spilled
        assert s.scores()[0] > s.scores()[2]

    def test_take_walks_resets(self):
        s = make_scheduler()
        s.add_buffered(0, 7)
        s.add_spilled(0, 3)
        assert s.take_walks(0) == (4, 3)
        assert s.take_walks(0) == (0, 0)
        assert s.total_pending == 0

    def test_spill_more_than_buffered_rejected(self):
        s = make_scheduler()
        s.add_buffered(0, 2)
        with pytest.raises(SchedulingError):
            s.add_spilled(0, 5)

    def test_out_of_partition_block_rejected(self):
        s = make_scheduler(n_blocks=4)
        with pytest.raises(SchedulingError):
            s.add_buffered(99, 1)

    def test_negative_count_rejected(self):
        s = make_scheduler()
        with pytest.raises(SchedulingError):
            s.add_buffered(0, -1)


class TestSelection:
    def test_picks_highest_score_on_chip(self):
        s = make_scheduler(n_blocks=8, n_chips=2)
        # chip 0 owns even blocks
        s.add_buffered(0, 5)
        s.add_buffered(2, 50)
        s.add_buffered(4, 10)
        assert s.next_subgraph(0) == 2

    def test_respects_chip_ownership(self):
        s = make_scheduler(n_blocks=8, n_chips=2)
        s.add_buffered(1, 100)  # chip 1's block
        assert s.next_subgraph(0) is None
        assert s.next_subgraph(1) == 1

    def test_exclude(self):
        s = make_scheduler(n_blocks=8, n_chips=2)
        s.add_buffered(0, 50)
        s.add_buffered(2, 10)
        assert s.next_subgraph(0, exclude={0}) == 2

    def test_empty_returns_none(self):
        s = make_scheduler()
        assert s.next_subgraph(0) is None

    def test_drained_blocks_skipped(self):
        s = make_scheduler(n_blocks=8, n_chips=2)
        s.add_buffered(0, 5)
        s.add_buffered(2, 3)
        s.take_walks(0)
        assert s.next_subgraph(0) == 2

    def test_chips_with_work(self):
        s = make_scheduler(n_blocks=8, n_chips=4)
        s.add_buffered(0, 1)  # chip 0
        s.add_buffered(5, 1)  # chip 1
        np.testing.assert_array_equal(s.chips_with_work(), [0, 1])

    def test_chips_with_work_follows_reassignment_through_a_view(self):
        # The engine shares its placement array with the scheduler and
        # rewrites it before calling reassign_blocks().
        placement = np.arange(8) % 4
        s = SubgraphScheduler(
            block_chip=placement, is_dense_block=np.zeros(8, dtype=bool),
            first_block=0, last_block=7, n_chips=4, alpha=1.2, beta=1.5,
            top_n=4, update_period_m=4,
        )
        s.add_buffered(1, 3)  # chip 1
        s.add_buffered(5, 2)  # chip 1
        placement[[1, 5]] = [2, 3]
        s.reassign_blocks([1, 5], [2, 3])
        np.testing.assert_array_equal(s.chips_with_work(), [2, 3])
        assert s.next_subgraph(1) is None
        assert s.next_subgraph(2) == 1
        assert s.next_subgraph(3) == 5

    def test_block_owner_out_of_range_rejected(self):
        with pytest.raises(SchedulingError):
            SubgraphScheduler(
                block_chip=np.array([0, 2]), is_dense_block=np.zeros(2, dtype=bool),
                first_block=0, last_block=1, n_chips=2, alpha=1.2, beta=1.5,
                top_n=4, update_period_m=4,
            )

    def test_bad_chip_rejected(self):
        s = make_scheduler()
        with pytest.raises(SchedulingError):
            s.next_subgraph(99)

    def test_without_scores_uses_walk_counts(self):
        s = make_scheduler(dense={2}, use_scores=False, beta=100.0)
        s.add_buffered(0, 10)  # non-dense: huge beta would inflate score
        s.add_buffered(2, 11)  # dense, more walks
        # count-based scheduling picks the dense block (more walks),
        # score-based (beta=100) would pick block 0.
        assert s.next_subgraph(0) == 2

    def test_with_scores_beta_flips_choice(self):
        s = make_scheduler(dense={2}, use_scores=True, beta=100.0)
        s.add_buffered(0, 10)
        s.add_buffered(2, 11)
        assert s.next_subgraph(0) == 0


class TestTopNAmortization:
    def test_deferred_updates_counted(self):
        s = make_scheduler(m=10)
        for _ in range(9):
            s.add_buffered(0, 1)
        assert s.topn_updates_deferred == 9

    def test_m_insertions_trigger_dirty(self):
        s = make_scheduler(m=4, n_chips=2)
        s.next_subgraph(0)  # establishes a clean (empty) top list
        refreshes = s.topn_refreshes
        s.add_buffered(0, 4)  # exactly M -> chip 0 dirty
        s.next_subgraph(0)
        assert s.topn_refreshes > refreshes

    def test_topn_caps_list_length(self):
        s = make_scheduler(n_blocks=8, n_chips=1, top_n=2)
        for b in range(8):
            s.add_buffered(b, b + 1)
        s.next_subgraph(0)
        assert len(s._top[0]) <= 2

    def test_stale_list_recovers(self):
        # Fill beyond topN, drain the listed entries, ensure the
        # scheduler still finds the remaining work via refresh.
        s = make_scheduler(n_blocks=8, n_chips=1, top_n=2, m=1)
        for b in range(8):
            s.add_buffered(b, 10 - b)
        served = []
        while True:
            blk = s.next_subgraph(0)
            if blk is None:
                break
            served.append(blk)
            s.take_walks(blk)
        assert sorted(served) == list(range(8))

    def test_validation(self):
        with pytest.raises(SchedulingError):
            make_scheduler(top_n=0)
        with pytest.raises(SchedulingError):
            make_scheduler(alpha=0)

    def test_ties_break_to_lowest_block_id(self):
        """Regression: equal scores must rank the lowest block ID first.

        ``argsort(key)[::-1]`` reverses the stable order, putting the
        *highest* index first among ties; sorting on the negated key
        keeps ties in ascending-index order.
        """
        s = make_scheduler(n_blocks=8, n_chips=1, top_n=4)
        for b in (6, 2, 4):
            s.add_buffered(b, 5)  # identical scores
        assert s.next_subgraph(0) == 2
        assert s._top[0] == [2, 4, 6]

    def test_topn_order_deterministic_across_runs(self):
        """Same insertion history -> identical topN lists, repeatedly."""
        def build():
            s = make_scheduler(n_blocks=8, n_chips=1, top_n=8)
            for b in (7, 1, 3, 5):
                s.add_buffered(b, 4)
            s.add_buffered(0, 9)
            s.next_subgraph(0)
            return list(s._top[0])
        first = build()
        assert first[0] == 0  # highest score first
        assert first[1:] == [1, 3, 5, 7]  # ties ascending by block ID
        for _ in range(5):
            assert build() == first


class TestScoreCache:
    def test_scores_cached_between_mutations(self):
        s = make_scheduler()
        s.add_buffered(0, 3)
        a = s.scores()
        b = s.scores()
        assert a is b  # same array object until the scoreboard changes
        assert s.score_cache_hits >= 1

    def test_mutation_invalidates(self):
        s = make_scheduler()
        s.add_buffered(0, 4)
        a = s.scores()
        s.add_spilled(0, 2)
        b = s.scores()
        assert a is not b
        assert b[0] != a[0]

    def test_take_walks_invalidates(self):
        s = make_scheduler()
        s.add_buffered(0, 4)
        assert s.scores()[0] > 0
        s.take_walks(0)
        assert s.scores()[0] == 0
        assert s.walk_counts()[0] == 0
