"""``python -m fwalg``: the ``fw`` command line."""

import sys

from .shell import main

if __name__ == "__main__":
    sys.exit(main())
