"""Tests for the package logging setup."""

import logging

import pytest

from repro.errors import ObsError

from repro.obs import LOG_LEVELS, configure_logging


class TestConfigureLogging:
    def test_sets_level(self):
        configure_logging("debug")
        try:
            assert logging.getLogger("repro").level == logging.DEBUG
        finally:
            configure_logging("warning")

    def test_idempotent_handler_install(self):
        configure_logging("warning")
        configure_logging("warning")
        assert len(logging.getLogger("repro").handlers) == 1

    def test_does_not_touch_root_logger(self):
        before = list(logging.getLogger().handlers)
        configure_logging("info")
        try:
            assert logging.getLogger().handlers == before
        finally:
            configure_logging("warning")

    def test_unknown_level_raises(self):
        with pytest.raises(ObsError, match="unknown log level"):
            configure_logging("loud")

    def test_all_documented_levels_accepted(self):
        for level in LOG_LEVELS:
            configure_logging(level)
        configure_logging("warning")

    def test_child_loggers_route_to_repro_handler(self):
        configure_logging("info")
        try:
            root = logging.getLogger("repro")
            # The tree is self-contained: one handler, no propagation
            # to the application root logger.
            assert not root.propagate
            child = logging.getLogger("repro.memsim.replay")
            assert child.getEffectiveLevel() == logging.INFO
            assert child.isEnabledFor(logging.INFO)
            assert not child.isEnabledFor(logging.DEBUG)
        finally:
            configure_logging("warning")
