"""Suite-wide test settings.

Hypothesis runs derandomized, so every run of the suite draws the same
examples, with no per-example deadline, since a shared machine can stall
any one example, and with a bounded number of examples per property.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without Hypothesis
    pass
else:
    settings.register_profile("abalg", derandomize=True, deadline=None, max_examples=40,
                              database=None)
    settings.load_profile("abalg")
