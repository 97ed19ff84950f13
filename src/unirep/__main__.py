"""``python -m unirep``: the same command as ``unirep``."""

import sys

from .cli import main

sys.exit(main())
