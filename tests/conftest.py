"""Suite-wide hypothesis settings: no per-example deadline, since one slow
example on a loaded host says nothing about the code. Tests keep their own
max_examples."""

from hypothesis import settings

settings.register_profile("sepqcqp", deadline=None)
settings.load_profile("sepqcqp")
