"""`python -m zstates`: the command line front end, as the `zstates` script."""

from .cli import entry

entry()
