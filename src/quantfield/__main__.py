"""``python -m quantfield``: the command line of ``quantfield.cli``."""
from .cli import entry

entry()
