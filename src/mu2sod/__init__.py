"""Exact calculator for semiorthogonal decompositions of diagonal
mu_2^k quotients of affine spaces, projective spaces, and Fermat
quadrics, with independent rank oracles and K-level mutation replay.

The top level re-exports one entry point per pipeline stage; the
building blocks live in the submodules.  Each name is imported from its
submodule on first use (PEP 562), so ``import mu2sod`` loads none of them."""

from importlib import import_module

# public name -> submodule it lives in; a module names itself
_HOME = {
    **dict.fromkeys(("ActionSpec", "SpecError", "make_spec", "parse_spec"), "groups"),
    "components": "inertia",
    **dict.fromkeys(("assemble", "msodc_plan", "report_to_dict"), "sod"),
    "gram_report": "euler",
    **dict.fromkeys(("apply_script", "identity_sequence"), "mutations"),
    **{name: name for name in ("mutations", "presets", "verify")},
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = import_module(f".{_HOME[name]}", __name__)
    value = home if _HOME[name] == name else getattr(home, name)
    globals()[name] = value  # resolved once: later lookups never reach here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
