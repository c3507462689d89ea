"""`python -m weilkit ...` runs the weilkit command line."""

import sys

from .cli import main

sys.exit(main())
