"""Task domains: scene construction and planning problems.

``DOMAINS`` maps each scenario ``domain`` name to its module.  A domain
module provides ``SCENE_DEFAULTS``, ``OPERATION_DEFAULTS``, ``STRATEGIES``,
``ROUTES``, ``build_world`` and ``build_problem``.
"""

from . import bottle, nut

DOMAINS = {"bottle-cap": bottle, "nut-fastening": nut}
