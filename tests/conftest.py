import sys
from pathlib import Path

from hypothesis import settings

# make the sibling oracles module importable from every test file
sys.path.insert(0, str(Path(__file__).parent))

# `pytest --hypothesis-profile=ci` prints the blob that reproduces a failing example
settings.register_profile("ci", print_blob=True, deadline=None)
