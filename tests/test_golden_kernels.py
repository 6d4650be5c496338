"""Byte-identical golden tests for every code-generation backend.

The files under ``tests/golden/`` were captured from the expression engine
*before* the hash-consing + memoisation refactor; these tests pin the
generated Triton / CUDA / MLIR text (matmul, NW, LUD, stencil and friends)
so engine changes that alter output — rather than just speed — fail loudly.

Regenerate intentionally with ``PYTHONPATH=src python tests/golden_kernels.py --write``.
"""

import pytest

from golden_kernels import GOLDEN_DIR, build_artifacts


@pytest.fixture(scope="module")
def artifacts() -> dict[str, str]:
    return build_artifacts()


def _golden_names() -> list[str]:
    return sorted(p.name for p in GOLDEN_DIR.iterdir())


def test_golden_directory_is_complete(artifacts):
    assert set(_golden_names()) == set(artifacts), (
        "artifact set drifted from tests/golden/; regenerate with "
        "`PYTHONPATH=src python tests/golden_kernels.py --write`"
    )


@pytest.mark.parametrize("name", _golden_names())
def test_generated_kernel_matches_golden(artifacts, name):
    expected = (GOLDEN_DIR / name).read_text()
    assert artifacts[name] == expected, f"{name}: generated kernel text drifted from golden file"


def test_eight_threads_on_an_empty_memo_table_produce_the_goldens():
    """The symbolic memo table is shared by every thread and takes no lock:
    racing writers must file the same answers a lone compile derives."""
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from repro.apps.matmul import generate_matmul_kernel
    from repro.symbolic import clear_memos

    variants = ("nn", "nt", "tn", "tt")
    alone = {}
    for variant in variants:
        clear_memos()
        kernel = generate_matmul_kernel(variant)
        alone[variant] = (kernel.source, kernel.binding_ops())
    for variant in ("nn", "tn"):
        assert alone[variant][0] == (GOLDEN_DIR / f"matmul_{variant}.triton.txt").read_text()

    barrier = threading.Barrier(8)

    def lower(variant):
        barrier.wait(timeout=60)
        kernel = generate_matmul_kernel(variant)
        return variant, (kernel.source, kernel.binding_ops())

    clear_memos()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads every few bytecodes' worth of time
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lower, variant) for variant in variants * 2]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    for variant, produced in results:
        assert produced == alone[variant], f"matmul {variant} differs when lowered under contention"
