"""The shared test set-up: every property test draws derandomized."""

from hypothesis import settings


def test_property_tests_draw_the_same_examples_on_every_run():
    for profile in (settings.default, settings(max_examples=7)):
        assert profile.derandomize
        assert profile.database is None
        assert profile.deadline is None
