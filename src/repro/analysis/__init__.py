"""Experiment drivers for the paper's evaluation figures."""

from repro.analysis.experiments import (
    Fig1Result,
    Fig2Result,
    Fig3Result,
    Fig4Result,
    Fig5Result,
    TraceConfineResult,
    run_fig1_mobius,
    run_fig2_vertex_deletion,
    run_fig3_confine_size,
    run_fig4_hgc_comparison,
    run_fig5_rssi_cdf,
    run_fig6_trace,
    run_fig7_trace,
    run_trace_confine,
)

__all__ = [
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig4Result",
    "Fig5Result",
    "TraceConfineResult",
    "run_fig1_mobius",
    "run_fig2_vertex_deletion",
    "run_fig3_confine_size",
    "run_fig4_hgc_comparison",
    "run_fig5_rssi_cdf",
    "run_fig6_trace",
    "run_fig7_trace",
    "run_trace_confine",
]
