"""Settings shared by the whole test suite.

Property tests run under one hypothesis profile: 60 examples per test, no
deadline, derandomized and without an example database, so every run
checks the same cases.
"""

try:
    from hypothesis import settings
except ImportError:  # only the property tests need hypothesis
    pass
else:
    settings.register_profile(
        "derandomized", max_examples=60, deadline=None, derandomize=True, database=None
    )
    settings.load_profile("derandomized")
