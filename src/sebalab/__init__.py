"""Numerical laboratory for the arithmetic Seba billiard on the square torus.

Five layers, one per concern: integer arithmetic of sums of two squares
(`arithmetic`), secular-equation spectra in weak and strong coupling
(`spectrum`), spectral-zeta moment profiles and fractal-exponent estimators
(`multifractal`), Epstein zeta functions of rectangular forms with analytic
continuation (`epstein`), and a command line front end (`cli`).

`import sebalab` loads no layer: each name below is imported from its home
module on first use (PEP 562), so numpy and mpmath load only when needed.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "ArithmeticTable": "arithmetic",
    "build_table": "arithmetic",
    "RectangularForm": "epstein",
    "ExponentReport": "multifractal",
    "FilterConfig": "multifractal",
    "MomentProfile": "multifractal",
    "density_filter": "multifractal",
    "exponent_chain": "multifractal",
    "fractal_estimates": "multifractal",
    "mean_tail": "multifractal",
    "moment_profile": "multifractal",
    "tail_tau": "multifractal",
    "zeta_lambda": "multifractal",
    "CouplingConfig": "spectrum",
    "CutoffPolicy": "spectrum",
    "SebaSpectrum": "spectrum",
    "solve_range": "spectrum",
}

__all__ = sorted(_HOMES) + ["__version__"]


def __getattr__(name):
    # not cached here, so the name always is its home module's object
    if name in _HOMES:
        return getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
