"""Tests for the synthetic Meetup generator, city configs, and cut-outs."""

import math
import random

import numpy as np
import pytest

from repro.core.model import InstanceStats
from repro.datasets import (
    CITY_CONFIGS,
    MeetupConfig,
    cutout,
    event_sweep,
    generate_ebsn,
    make_city,
    tag_similarity,
    user_sweep,
)
from repro.datasets.cutout import DEFAULT_EVENTS, EVENT_GRID, USER_GRID
from repro.datasets.tags import TAG_VOCABULARY, sample_tag_set, zipf_weights


class TestTags:
    def test_vocabulary_unique(self):
        assert len(set(TAG_VOCABULARY)) == len(TAG_VOCABULARY)

    def test_zipf_weights_normalised(self):
        weights = zipf_weights(10)
        assert sum(weights) == pytest.approx(1.0)
        assert weights == sorted(weights, reverse=True)

    def test_sample_tag_set_size(self):
        rng = random.Random(0)
        tags = sample_tag_set(rng, min_tags=3, max_tags=5)
        assert 3 <= len(tags) <= 5
        assert tags <= set(TAG_VOCABULARY)

    def test_similarity_identical(self):
        tags = frozenset({"a", "b"})
        assert tag_similarity(tags, tags) == pytest.approx(1.0)

    def test_similarity_disjoint(self):
        assert tag_similarity(frozenset({"a"}), frozenset({"b"})) == 0.0

    def test_similarity_cosine_value(self):
        value = tag_similarity(frozenset({"a", "b"}), frozenset({"b", "c", "d"}))
        assert value == pytest.approx(1 / math.sqrt(6))

    def test_similarity_empty(self):
        assert tag_similarity(frozenset(), frozenset({"a"})) == 0.0

    def test_similarity_symmetric(self):
        a, b = frozenset({"x", "y"}), frozenset({"y", "z"})
        assert tag_similarity(a, b) == tag_similarity(b, a)


class TestGenerator:
    def test_sizes(self):
        instance = generate_ebsn(MeetupConfig(n_users=40, n_events=12, seed=1))
        assert instance.n_users == 40
        assert instance.n_events == 12

    def test_deterministic(self):
        a = generate_ebsn(MeetupConfig(seed=5))
        b = generate_ebsn(MeetupConfig(seed=5))
        assert np.array_equal(a.utility, b.utility)
        assert a.events[0].interval == b.events[0].interval

    def test_conflict_ratio_controlled(self):
        for target in (0.0, 0.25, 0.5):
            instance = generate_ebsn(
                MeetupConfig(n_events=40, conflict_ratio=target, seed=2)
            )
            assert instance.conflict_ratio() == pytest.approx(target, abs=0.06)

    def test_utility_in_range_and_sparse(self):
        instance = generate_ebsn(MeetupConfig(seed=3))
        assert instance.utility.min() >= 0.0
        assert instance.utility.max() <= 1.0
        positive = (instance.utility > 0).mean()
        assert 0.05 < positive < 0.99   # tag overlap leaves zeros

    def test_bounds_means_near_table_iv(self):
        instance = generate_ebsn(
            MeetupConfig(n_users=400, n_events=80, seed=4)
        )
        stats = InstanceStats.of(instance)
        assert stats.mean_lower == pytest.approx(10, abs=4)
        assert stats.mean_upper == pytest.approx(50, abs=8)

    def test_lower_never_exceeds_upper(self):
        instance = generate_ebsn(MeetupConfig(seed=6, n_events=50))
        for event in instance.events:
            assert event.lower <= event.upper

    def test_empty_events(self):
        instance = generate_ebsn(MeetupConfig(n_events=0, n_users=5, seed=0))
        assert instance.n_events == 0


class TestCities:
    def test_four_cities_configured(self):
        assert set(CITY_CONFIGS) == {
            "beijing", "vancouver", "auckland", "singapore"
        }

    def test_beijing_matches_table_iv(self):
        instance = make_city("beijing")
        stats = InstanceStats.of(instance)
        assert stats.n_users == 113
        assert stats.n_events == 16
        assert stats.conflict_ratio == pytest.approx(0.25, abs=0.07)

    def test_scale_shrinks(self):
        full = CITY_CONFIGS["auckland"]
        instance = make_city("auckland", scale=0.1)
        assert instance.n_users == pytest.approx(full.n_users * 0.1, abs=1)
        assert instance.n_events >= 4

    def test_unknown_city(self):
        with pytest.raises(ValueError, match="unknown city"):
            make_city("atlantis")

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            make_city("beijing", scale=0.0)

    def test_case_insensitive(self):
        assert make_city("Beijing").n_users == 113


class TestCutout:
    def test_shapes(self):
        full = generate_ebsn(MeetupConfig(n_users=50, n_events=20, seed=8))
        sub = cutout(full, 20, 5, seed=1)
        assert sub.n_users == 20
        assert sub.n_events == 5
        assert sub.utility.shape == (20, 5)

    def test_cannot_grow(self):
        full = generate_ebsn(MeetupConfig(n_users=10, n_events=5, seed=8))
        with pytest.raises(ValueError):
            cutout(full, 20, 5)

    def test_preserves_attribute_values(self):
        full = generate_ebsn(MeetupConfig(n_users=30, n_events=10, seed=9))
        sub = cutout(full, 30, 10, seed=0)   # full-size cut: a relabelling
        budgets_full = sorted(u.budget for u in full.users)
        budgets_sub = sorted(u.budget for u in sub.users)
        assert budgets_full == budgets_sub

    def test_lower_bound_clipped_to_population(self):
        full = generate_ebsn(
            MeetupConfig(n_users=60, n_events=10, mean_lower=25, seed=10)
        )
        sub = cutout(full, 5, 10, seed=0)
        for event in sub.events:
            assert event.lower <= 5

    def test_deterministic(self):
        full = generate_ebsn(MeetupConfig(n_users=30, n_events=10, seed=9))
        a = cutout(full, 10, 5, seed=3)
        b = cutout(full, 10, 5, seed=3)
        assert np.array_equal(a.utility, b.utility)


class TestSweeps:
    def test_user_sweep_grid(self):
        sweep = user_sweep(grid=(5, 10), n_events=6, seed=1)
        assert [n for n, _ in sweep] == [5, 10]
        for n, instance in sweep:
            assert instance.n_users == n
            assert instance.n_events == 6

    def test_event_sweep_grid(self):
        sweep = event_sweep(grid=(4, 8), n_users=12, seed=1)
        assert [m for m, _ in sweep] == [4, 8]
        for m, instance in sweep:
            assert instance.n_events == m
            assert instance.n_users == 12

    def test_paper_grids_match_table_v(self):
        assert EVENT_GRID == (20, 50, 100, 200, 500)
        assert USER_GRID == (200, 500, 1000, 5000)
        assert DEFAULT_EVENTS == 50


class TestScaleGenerator:
    """The vectorized soak-scale generator (``repro.datasets.scale``)."""

    def _small(self, **overrides):
        from repro.datasets import ScaleConfig, generate_scale_instance

        config = ScaleConfig(
            n_users=overrides.pop("n_users", 2000),
            n_events=overrides.pop("n_events", 32),
            n_clusters=overrides.pop("n_clusters", 8),
            **overrides,
        )
        return generate_scale_instance(config)

    def test_shapes_and_validity(self):
        instance = self._small()
        assert instance.n_users == 2000
        assert instance.n_events == 32
        assert instance.utility.shape == (2000, 32)
        assert (instance.utility >= 0.0).all()
        for event in instance.events:
            assert 0 <= event.lower <= event.upper
            assert event.interval.end > event.interval.start

    def test_deterministic_for_fixed_seed(self):
        a = self._small(seed=42)
        b = self._small(seed=42)
        assert np.array_equal(a.utility, b.utility)
        assert all(
            ua.location == ub.location and ua.budget == ub.budget
            for ua, ub in zip(a.users, b.users)
        )
        c = self._small(seed=43)
        assert not np.array_equal(a.utility, c.utility)

    def test_geography_is_cluster_local(self):
        # City diameter >> budgets, so reachability (and with it the
        # fringe the sharded solve re-fills) stays sparse.
        from repro.core.tiles import use_distance_backend
        from repro.scale import reachable_matrix

        with use_distance_backend("tiled"):
            instance = self._small()
            density = reachable_matrix(instance).mean()
        assert density < 0.25

    def test_utility_sparse_and_cluster_aligned(self):
        instance = self._small()
        liked = instance.utility > 0.0
        assert 0.0 < liked.mean() < 0.2
