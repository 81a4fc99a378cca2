"""`python -m latticepath <command>`: the latticepath command-line runner."""

import sys

from .cli import main

sys.exit(main())
