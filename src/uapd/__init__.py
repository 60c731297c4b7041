"""Accelerated primal-dual solver for affinely constrained composite problems.

Six modules, each imported by name (``from uapd.solver import solve``):
``geometry`` (Bregman geometries over products of simplices and
Euclidean blocks), ``problems`` (instances, benchmark generators and
their JSON documents), ``solver`` (the adaptive method with its
fixed-tolerance baseline), ``analysis`` (decay-rate bounds and fits),
``flow`` (the continuous-time flow integrator) and ``cli`` (the
JSON/CSV benchmark command line).
"""

__version__ = "0.1.0"
