"""The shadow-oracle contract end to end: a sanitized figure run is
violation-free and produces byte-identical schedules/tables.

This is the acceptance gate of the checks layer — the sanitizer must be
a pure observer: every fresh kernel verdict, cache hit and k-ball it
recomputes on the dict oracles must agree (zero violations), and turning
it on must not perturb the schedule in any way.
"""

import pytest

from repro.analysis.experiments import run_fig2_vertex_deletion, run_fig3_confine_size
from repro.checks.sanitizer import (
    current_sanitizer,
    disable_sanitizer,
    enable_sanitizer,
)
from repro.obs import Tracer, observe


class TestSanitizedFig2:
    def test_clean_and_byte_identical(self):
        disable_sanitizer()
        plain = run_fig2_vertex_deletion(count=70, degree=10.0, taus=(3, 4), seed=0)
        enable_sanitizer()
        try:
            sanitized = run_fig2_vertex_deletion(
                count=70, degree=10.0, taus=(3, 4), seed=0
            )
            sanitizer = current_sanitizer()
            assert sanitizer.violations == []
            assert sanitizer.checks.get("fresh_verdict", 0) > 0
            assert sanitizer.total_checks > 0
        finally:
            disable_sanitizer()
        assert sanitized.format_table() == plain.format_table()
        assert sanitized.active_by_tau == plain.active_by_tau

    def test_sanitized_parallel_matches_serial(self):
        enable_sanitizer()
        try:
            serial = run_fig2_vertex_deletion(
                count=70, degree=10.0, taus=(3, 4), seed=0, workers=1
            )
            fanned = run_fig2_vertex_deletion(
                count=70, degree=10.0, taus=(3, 4), seed=0, workers=2
            )
            assert current_sanitizer().violations == []
        finally:
            disable_sanitizer()
        assert fanned.format_table() == serial.format_table()


def _sanitized_fig3_summary(workers, observed):
    sanitizer = enable_sanitizer()
    try:
        if observed:
            with observe(Tracer()):
                result = run_fig3_confine_size(
                    count=60, degree=10.0, taus=(3, 4), runs=2, workers=workers
                )
        else:
            result = run_fig3_confine_size(
                count=60, degree=10.0, taus=(3, 4), runs=2, workers=workers
            )
    finally:
        disable_sanitizer()
    return result.format_table(), sanitizer.summary()


class TestSanitizedPool:
    @pytest.mark.parametrize("observed", [False, True])
    def test_summary_line_is_worker_count_invariant(self, observed):
        """Pool workers' checks fold into the caller's account."""
        serial = _sanitized_fig3_summary(1, observed)
        assert "fresh_verdict=" in serial[1]
        assert _sanitized_fig3_summary(2, observed) == serial
