"""`python -m hpstep`: the `hpstep` command line (`cli.main`)."""
import sys

from .cli import main

sys.exit(main())
