"""Tests for utilities (rng, timer) and the exception hierarchy."""

from __future__ import annotations

import random
import time

import pytest

from repro import exceptions
from repro.utils import Timer, ensure_rng


class TestEnsureRng:
    def test_none_gives_fresh_generator(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_seed_is_reproducible(self):
        assert ensure_rng(7).random() == ensure_rng(7).random()

    def test_existing_generator_passthrough(self):
        generator = random.Random(1)
        assert ensure_rng(generator) is generator

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng(True)

    def test_other_types_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestTimer:
    def test_context_manager_accumulates(self):
        timer = Timer()
        with timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.005
        first = timer.elapsed
        with timer:
            time.sleep(0.01)
        assert timer.elapsed > first

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "subclass",
        [
            exceptions.GraphError,
            exceptions.ProbabilityError,
            exceptions.FactorError,
            exceptions.IndexError_,
            exceptions.QueryError,
            exceptions.VerificationError,
        ],
    )
    def test_all_derive_from_repro_error(self, subclass):
        assert issubclass(subclass, exceptions.ReproError)

    def test_factor_error_is_probability_error(self):
        assert issubclass(exceptions.FactorError, exceptions.ProbabilityError)

    def test_vertex_not_found_carries_vertex(self):
        error = exceptions.VertexNotFoundError(42)
        assert error.vertex == 42
        assert "42" in str(error)

    def test_edge_not_found_carries_endpoints(self):
        error = exceptions.EdgeNotFoundError(1, 2)
        assert (error.u, error.v) == (1, 2)
