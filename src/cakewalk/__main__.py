"""``python -m cakewalk``: the command-line front end (``cakewalk.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
