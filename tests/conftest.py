import hypothesis
import pytest

import spinaltri.triangulation

hypothesis.settings.register_profile(
    "exact", deadline=None, max_examples=40, derandomize=True
)
hypothesis.settings.load_profile("exact")


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked slow (the brute-force facet oracle, a few minutes)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow; enable with --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def fresh_star_memo():
    """Each test starts with an empty star memo, so a test that counts the
    double descriptions of a star does not depend on the tests before it."""
    spinaltri.triangulation._star_memo = None
