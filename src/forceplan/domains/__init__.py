"""Task domains: scene construction and planning problems.

``DOMAINS`` maps each scenario ``domain`` name to its module.  A domain
module provides ``SCENE_DEFAULTS``, ``OPERATION_DEFAULTS``, ``STRATEGIES``,
``ROUTES``, ``build_world``, the domain's ``World`` class (so
``build_world(scene, operation, disable)`` is the world of one stage, with
the strategies and routes it offers), and ``build_problem(world, spec,
seed)``, which returns its planning ``Problem``.
"""

from . import bottle, nut

DOMAINS = {"bottle-cap": bottle, "nut-fastening": nut}
