"""Set-up probe: a fresh process imports randmeas and builds a request list.

Usage: python3 setup_probe.py WORKLOAD SEED CYCLES (with src/ and this
directory on PYTHONPATH).  ``run.py`` times whole runs of this script.
"""

import sys

import randmeas.cli  # noqa: F401  (importing is what is measured)
from mixes import build_requests

build_requests(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
