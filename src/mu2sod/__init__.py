"""Exact calculator for semiorthogonal decompositions of diagonal
mu_2^k quotients of affine spaces, projective spaces, and Fermat
quadrics, with independent rank oracles and K-level mutation replay.

The top level re-exports one entry point per pipeline stage; the
building blocks live in the submodules."""

from .groups import ActionSpec, SpecError, make_spec, parse_spec
from .inertia import components
from .sod import assemble, msodc_plan, report_to_dict
from .euler import gram_report
from .mutations import apply_script, identity_sequence
from . import mutations, presets, verify

__all__ = [
    "ActionSpec",
    "SpecError",
    "apply_script",
    "assemble",
    "components",
    "gram_report",
    "identity_sequence",
    "make_spec",
    "msodc_plan",
    "mutations",
    "parse_spec",
    "presets",
    "report_to_dict",
    "verify",
]
