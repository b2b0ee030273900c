"""``python -m svcnet``: the same command line as the ``svcnet`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
