"""``python -m repro.checks`` == ``repro-check``."""

import sys

from repro.checks.runner import main

sys.exit(main())
