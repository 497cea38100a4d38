"""`python -m hdcrypt`: the same command line as the `hdcrypt` script."""

import sys

from .cli import main

sys.exit(main())
