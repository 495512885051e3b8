"""The first 200 configs of the CLI census (``cli_census.py``), under the
suite's ``error::RuntimeWarning``: no command ends in a traceback, every level
scales as E / L^2, and no written file holds a NaN or an infinity."""

import cli_census


def test_census_of_200_configs():
    sites, misses, _, _, _, not_finite = cli_census.census(200)
    assert not sites
    assert not misses
    assert not any(not_finite.values())
