"""Session set-up shared by the test modules."""

from unforget.cli import _settle_malloc


def pytest_configure(config):
    # Settle glibc's malloc thresholds once, as the command-line entry point
    # does, so that timed tests run with the same allocator whichever test
    # runs first.
    _settle_malloc()
