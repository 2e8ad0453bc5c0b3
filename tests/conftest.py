"""Shared pytest configuration.

``--hypothesis-profile=sim-pins`` runs the simulator's property tests
that take their example count from the profile (the scoreboard's
differential oracle) on 2,000 derandomized examples instead of the
default 100.
"""

try:
    from hypothesis import settings
except ImportError:  # test runs without property tests need no hypothesis
    pass
else:
    settings.register_profile(
        "sim-pins", derandomize=True, max_examples=2000, deadline=None
    )
