"""Scenario debugging toolkit: annotate sequence diagrams with state
vectors, explain conflicts, synthesize statecharts, and check edited charts
back against the scenarios."""
