"""``python -m mbstat``: the ``mbstat`` command."""

import sys

from .cli import main

sys.exit(main())
