"""Pins numpy's bundled OpenBLAS before anything imports numpy.

OpenBLAS picks a kernel for the host's CPU when it loads, and the kernels
differ in the last bits of an eigensolve, so the byte-compared golden
reports would hold only on hosts that pick the kernel they were written
on.  ``Nehalem`` runs on every x86-64 host and reads back under its own
name; one thread fixes the order of the sums as well.
"""

import os

os.environ["OPENBLAS_CORETYPE"] = "Nehalem"
os.environ["OPENBLAS_NUM_THREADS"] = "1"
