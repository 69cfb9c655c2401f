"""Tests for the end-to-end study pipeline."""

import pytest

from repro.core.pipeline import StudyReport, WearableStudy


class TestWearableStudy:
    def test_run_all_returns_full_report(self, small_study):
        report = small_study.run_all()
        assert isinstance(report, StudyReport)
        assert report.census.total_devices > 0
        assert report.adoption.daily_counts
        assert len(report.activity.transaction_sizes) > 0
        assert report.apps.per_app
        assert report.domains.per_domain_category

    def test_results_are_cached(self, small_study):
        assert small_study.adoption is small_study.adoption
        assert small_study.attribution is small_study.attribution
        assert small_study.usage is small_study.usage
        assert small_study.attributed is small_study.attribution
        assert small_study.sessions is small_study.usage

    def test_report_fields_match_properties(self, small_study):
        report = small_study.run_all()
        assert report.adoption is small_study.adoption
        assert report.mobility is small_study.mobility

    def test_attribution_covers_most_wearable_traffic(self, small_study):
        assert (small_study.attribution.app >= 0).mean() > 0.85

    def test_sessions_cover_attributed_transactions(self, small_study):
        attributed_with_app = int((small_study.attribution.app >= 0).sum())
        assert int(small_study.usage.tx_count.sum()) == attributed_with_app

    def test_app_categories_cover_catalog(self, small_study):
        from repro.simnet.appcatalog import APP_CATEGORIES

        assert set(small_study.app_categories.values()) <= set(APP_CATEGORIES)

    def test_study_on_loaded_dataset_matches_in_memory(
        self, small_output, small_study, tmp_path
    ):
        from repro.core.dataset import StudyDataset

        small_output.write(tmp_path / "trace")
        reloaded = WearableStudy(StudyDataset.load(tmp_path / "trace"))
        a = small_study.run_all()
        b = reloaded.run_all()
        assert a.adoption == b.adoption
        assert a.comparison.extra_data_percent == pytest.approx(
            b.comparison.extra_data_percent
        )
        assert [row.app for row in a.apps.per_app] == [
            row.app for row in b.apps.per_app
        ]
