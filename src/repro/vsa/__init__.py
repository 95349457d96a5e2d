"""Vector-Symbolic Architecture (VSA) substrate.

All four NSAI workloads the paper evaluates (NVSA, MIMONet, LVRF, PrAE —
Table I) build their symbolic halves on VSA block codes: symbols are
high-dimensional vectors, composite symbols are formed with *blockwise
circular convolution* binding, queries are answered by *circular
correlation* unbinding followed by similarity search against a codebook
(Sec. II-A). This package implements that algebra:

* :mod:`~repro.vsa.ops` — circular convolution/correlation, bundling,
  similarity, permutation (batched, blockwise);
* :mod:`~repro.vsa.blockcode` — the block-code vector type and its algebra;
* :mod:`~repro.vsa.codebook` — codebooks, cleanup memory, and the
  ``match_prob`` / ``match_prob_multi_batched`` kernels of Listing 1;
* :mod:`~repro.vsa.resonator` — iterative resonator factorization used by
  the NVSA backend to recover attribute factors from bound scene vectors.

Names resolve on first use (:mod:`repro._lazy`). The workloads compute
with :mod:`.ops` alone, so a compile never loads the block-code,
codebook or resonator modules.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "ops": [
        "circular_convolution",
        "circular_correlation",
        "bundle",
        "cosine_similarity",
        "dot_similarity",
        "permute_blocks",
        "random_vector",
        "random_unitary_vector",
        "bind_power",
        "unit_vector",
    ],
    "blockcode": ["BlockCodeVector", "random_block_code"],
    "codebook": ["Codebook", "match_prob", "match_prob_multi_batched"],
    "resonator": ["ResonatorNetwork", "ResonatorResult"],
})
