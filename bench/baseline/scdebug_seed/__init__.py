"""Scenario debugging toolkit: annotate sequence diagrams with state
vectors, explain conflicts, synthesize statecharts, and check edited charts
back against the scenarios."""

from .annotator import AnnotationConfig, annotate
from .checker import NoRepairWithinBound, check_all, repair, replay
from .dsl import (
    ParseError,
    parse_domain_theory,
    parse_sc,
    parse_sd,
    print_domain_theory,
    print_sc,
    print_sd,
)
from .report import export_dot, render_json, render_text
from .synthesizer import ConflictedInputError, synthesize

__version__ = "0.1.0"

__all__ = [
    "AnnotationConfig",
    "ConflictedInputError",
    "NoRepairWithinBound",
    "ParseError",
    "annotate",
    "check_all",
    "export_dot",
    "parse_domain_theory",
    "parse_sc",
    "parse_sd",
    "print_domain_theory",
    "print_sc",
    "print_sd",
    "render_json",
    "render_text",
    "repair",
    "replay",
    "synthesize",
]
