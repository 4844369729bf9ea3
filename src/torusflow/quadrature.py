"""Gauss-Legendre rules mapped to the unit reference element."""

from functools import lru_cache

import numpy as np

from .curves import _count


@lru_cache(maxsize=None)
def gauss_01(npts: int):
    """Nodes and weights on [0, 1], exact for polynomials of degree 2*npts - 1."""
    npts = _count("quadrature_points", npts, 1)
    x, w = np.polynomial.legendre.leggauss(npts)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=32)
def element_rho(node_count: int, npts: int):
    """Gauss coordinates per element, wrapped into [0, 1), with the rule's
    nodes and weights on [0, 1]; element j spans [(j-1)h, jh]."""
    s, w = gauss_01(npts)
    h = 1.0 / node_count
    rho = (np.arange(node_count)[:, None] - 1.0 + s[None, :]) * h
    rho = np.mod(rho, 1.0)
    rho.setflags(write=False)
    return rho, s, w
