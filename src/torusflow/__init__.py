"""Finite element evolution of axisymmetric torus-type surfaces via their
generating curves.

Each module's ``__all__`` is the one declaration of its public names; the
package re-exports them, in module order, after ``__version__``.
"""

__version__ = "0.1.0"

from . import assembly, curves, cyclic_solver, diagnostics, experiments, stepping
from .assembly import *
from .curves import *
from .cyclic_solver import *
from .diagnostics import *
from .experiments import *
from .stepping import *

_MODULES = (assembly, curves, cyclic_solver, diagnostics, experiments, stepping)
__all__ = sum((module.__all__ for module in _MODULES), ["__version__"])
