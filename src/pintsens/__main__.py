"""``python -m pintsens``: the ``pintsens`` command line."""

import sys

from .cli import main

sys.exit(main())
