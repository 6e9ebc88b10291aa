from hypothesis import settings

# Derandomized, so every run of the suite draws the same examples, and with
# no per-example deadline, so a slow or busy host cannot fail a property.
settings.register_profile("carasim", derandomize=True, deadline=None)
settings.load_profile("carasim")
