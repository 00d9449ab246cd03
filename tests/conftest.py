import os

from hypothesis import settings

# CI runners set CI; there every property test draws the same examples on every
# run, so a failure on a runner reproduces locally under CI=1
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
