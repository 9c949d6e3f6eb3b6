"""``python -m repro.experiments``: the ``repro-experiments`` command."""

import sys

from repro.experiments.registry import main

if __name__ == "__main__":
    sys.exit(main())
