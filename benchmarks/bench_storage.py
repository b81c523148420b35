"""Microbenchmarks of the storage codecs.

Not a paper figure; the posting codec still serves the kernel's
zero-copy branch and its tests, so its cost stays visible here.

Run: pytest benchmarks/bench_storage.py --benchmark-only
"""

from repro.storage.postings import (
    decode_node_postings,
    encode_node_postings,
)


def bench_posting_roundtrip(benchmark):
    posting = [(i * 3, i * 3 + 2, i % 11, 1) for i in range(5_000)]
    encoded = encode_node_postings(posting)

    def roundtrip():
        decode_node_postings(encoded)

    benchmark(roundtrip)
