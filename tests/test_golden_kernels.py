"""Byte-identical golden tests for every code-generation backend.

The files under ``tests/golden/`` were captured from the expression engine
*before* the hash-consing + memoisation refactor; these tests pin the
generated Triton / CUDA / MLIR text (matmul, NW, LUD, stencil and friends)
so engine changes that alter output — rather than just speed — fail loudly.

Regenerate intentionally with ``PYTHONPATH=src python tests/golden_kernels.py --write``.
"""

import pytest

from golden_kernels import GOLDEN_DIR, build_artifacts, golden_kernel_paths


@pytest.fixture(scope="module")
def artifacts() -> dict[str, str]:
    return build_artifacts()


def _golden_names() -> list[str]:
    return [p.name for p in golden_kernel_paths()]


def test_golden_directory_is_complete(artifacts):
    assert set(_golden_names()) == set(artifacts), (
        "artifact set drifted from tests/golden/; regenerate with "
        "`PYTHONPATH=src python tests/golden_kernels.py --write`"
    )


@pytest.mark.parametrize("name", _golden_names())
def test_generated_kernel_matches_golden(artifacts, name):
    expected = (GOLDEN_DIR / name).read_text()
    assert artifacts[name] == expected, f"{name}: generated kernel text drifted from golden file"


#: sha256 of ``generate_transpose_module(n, tile, variant, skew).source``, recorded
#: before the MLIR IR became slot-backed and the printer one-pass: the module
#: objects and their printer may get faster, never print differently
_TRANSPOSE_DIGESTS = {
    ("naive", 0, 16, 4): "3ada1867f3b40e47039c4786517cb3668e7d9d92a0d066eeaac2e9ff4cd12596",
    ("naive", 0, 64, 8): "e51e4e07d79dee90ab3ad2e68f16746fb8470ea0bd10d9dd1dc786bfeff52500",
    ("naive", 0, 128, 16): "33ff878bbe10a5d3b5e0a8c1e1baa810a54bd3e10860a532acd1e3cd271ed822",
    ("naive", 0, 256, 32): "39498daac81709f945bb8e2ebe153443d97ce07eb02b44a2a104f6e5084cb717",
    ("naive", 0, 512, 16): "16dbf68b7550d4ac5ad454642b59bc1753fcfefb414eda35b631331dd4d0e8c6",
    ("naive", 1, 16, 4): "3ada1867f3b40e47039c4786517cb3668e7d9d92a0d066eeaac2e9ff4cd12596",
    ("naive", 1, 64, 8): "e51e4e07d79dee90ab3ad2e68f16746fb8470ea0bd10d9dd1dc786bfeff52500",
    ("naive", 1, 128, 16): "33ff878bbe10a5d3b5e0a8c1e1baa810a54bd3e10860a532acd1e3cd271ed822",
    ("naive", 1, 256, 32): "39498daac81709f945bb8e2ebe153443d97ce07eb02b44a2a104f6e5084cb717",
    ("naive", 1, 512, 16): "16dbf68b7550d4ac5ad454642b59bc1753fcfefb414eda35b631331dd4d0e8c6",
    ("smem", 0, 16, 4): "6a03c32578ef7632613b8cf7cd99c0ec7d0b4696b8979cf1edc94fbc54f49211",
    ("smem", 0, 64, 8): "0d204240546ecb49d2e5b205424cb59dbd5d84be1fca8dc576aad33752ea73e2",
    ("smem", 0, 128, 16): "64a86bf68ac405a67c32b00f92349250d8551a52ab12c5ccda1e3d6c7d535f0b",
    ("smem", 0, 256, 32): "a4aa08d3521c49ef6689bcfab7c79cc1d64e375628418508fdea6745fa395ea2",
    ("smem", 0, 512, 16): "e61e89eedda3169143d2b4017a9511dda11b921ce475d44a00cef609b7a26b4a",
    ("smem", 1, 16, 4): "2d38e72fd8acc9cae3654a6de56e59154f8a471f40ce2783822d15b43e7e1f22",
    ("smem", 1, 64, 8): "f284126ce37e7d0fa2975c4d54b89eb170d39038a3bff8751cae88941d2ffe3f",
    ("smem", 1, 128, 16): "9666e35b903c4fdd2c89d5e4b2e17536db825b48469a65ce7d06490b77690741",
    ("smem", 1, 256, 32): "2d90a02de4c3299469d15abc16a6948d75f4fb87c155833719cb8549dbe36f35",
    ("smem", 1, 512, 16): "8a38f22f2b47ee27718bb8fad9d356ed28fe3d0590d649680eb8c250dab29d9c",
}


@pytest.mark.parametrize("variant, skew, n, tile", sorted(_TRANSPOSE_DIGESTS))
def test_transpose_module_text_is_pinned(variant, skew, n, tile):
    import hashlib

    from repro.codegen.mlir import generate_transpose_module

    source = generate_transpose_module(n, tile, variant, bool(skew)).source
    assert hashlib.sha256(source.encode()).hexdigest() == _TRANSPOSE_DIGESTS[variant, skew, n, tile]


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
