"""``python -m ellvar``: the command-line interface, same as ``python -m ellvar.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
