import hypothesis
import pytest

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
