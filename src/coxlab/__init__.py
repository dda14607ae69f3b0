"""Quantum mechanics of a scalar particle with intrinsic structure.

Subpackages cover: exact inversion of the field-dressed mass matrix
(tensor_algebra), uniform magnetic/electric field configurations on
flat, Lobachevsky and spherical spatial sections (backgrounds), the
separated radial problems with analytic spectra and an independent
eigensolver (radial), the axial problems with effective potentials,
Airy-type solutions and an integrator (axial), the hypergeometric/gamma
kernels (special_functions), and a command-line interface (cli).
"""

from __future__ import annotations

__version__ = "0.1.0"

from . import tensor_algebra, backgrounds, radial, axial, special_functions  # noqa: F401
