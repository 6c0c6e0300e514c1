"""Every shipped kernel assembles to the committed ``.text`` digest.

``shipped_kernel_digests.txt`` holds the ``sha256 <name> <hex>`` lines
``benchmarks/lint_kernels.py --no-space`` prints for the 22 shipped
kernels (both fused Winograd families across the benchmarked tunables,
each as the full kernel and the main-loop microbenchmark, plus the
batched GEMM and the filter transform).  A refactor of the generators,
the assembler or its scheduler that claims identical kernels is checked
here.  A change that alters a kernel on purpose regenerates the file::

    PYTHONPATH=src python benchmarks/lint_kernels.py --no-space \\
        | grep '^sha256 ' > tests/kernels/shipped_kernel_digests.txt
"""

import hashlib
import os
import pathlib
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks"))

from lint_kernels import shipped_kernels  # noqa: E402

GOLDEN = pathlib.Path(__file__).with_name("shipped_kernel_digests.txt")


def test_shipped_kernels_match_the_committed_digests():
    built = [
        f"sha256 {name} {hashlib.sha256(kernel.text).hexdigest()}"
        for name, kernel in shipped_kernels()
    ]
    assert built == GOLDEN.read_text().splitlines()
