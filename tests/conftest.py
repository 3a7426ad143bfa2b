"""Shared pytest configuration.

Registers the ``deep`` hypothesis profile: more examples and no
per-example deadline, for a slower, more thorough run of the property
tests (``--hypothesis-profile=deep``).  The default profile is left as
hypothesis ships it.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=1000, deadline=None)
