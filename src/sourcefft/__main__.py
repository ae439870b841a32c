"""Run the command line tool as `python -m sourcefft`."""

from .cli import entry

entry()
