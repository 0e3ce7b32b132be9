"""The columnar kernel module's stream primitive and its batch metric.

- ``read_words`` is exactly repeated ``bits(width)`` calls, so grouped
  block fetches never change the stream a kernel consumes;
- every kernel call counts its elements into the single
  ``repro_kernel_batch_elems_total`` series.

The law enumerations in ``test_columnar_law.py`` pin the kernels'
exactness.
"""

from repro.core.halt import HALT
from repro.fastpath import kernels
from repro.obs import REGISTRY
from repro.randvar.bitsource import RandomBitSource


def test_read_words_is_repeated_bits_calls():
    for width in (1, 2, 7, 31, 32, 33, 64):
        for n in (0, 1, 2, 3, 17, 64):
            grouped = RandomBitSource(99)
            naive = RandomBitSource(99)
            words = kernels.read_words(grouped.bits, n, width)
            assert words == [naive.bits(width) for _ in range(n)]
            assert grouped.consumed == naive.consumed


class TestKernelMetric:
    def test_batch_elems_counts_kernel_work(self):
        counter = REGISTRY.counter("repro_kernel_batch_elems_total")
        before = kernels.batch_elems()
        assert counter.value == before
        structure = HALT(
            ((i, w) for i, w in enumerate([1, 3, 7, 2] * 40)),
            source=RandomBitSource(13),
        )
        structure.query_many(1, 0, 64)
        assert kernels.batch_elems() > before
        assert counter.value == kernels.batch_elems()
        series = [
            line for line in REGISTRY.render()
            if line.startswith("repro_kernel_batch_elems_total")
        ]
        assert series == [f"repro_kernel_batch_elems_total {counter.value}"]
