"""Shuffling momentum methods, schedules and bound audits; import each name from its module."""

import os

# Every BLAS call here is small and sequential, so an OpenBLAS worker pool only
# adds start-up time; set before numpy loads, and a caller's own value is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
