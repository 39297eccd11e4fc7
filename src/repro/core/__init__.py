"""Core PyBlaz reproduction: the block-transform compressor and compressed-space ops.

The public API mirrors the paper's architecture (§III):

* :class:`CompressionSettings` — block shape, working float format, bin-index type,
  orthonormal transform, and pruning mask.
* :class:`Compressor` — ``compress`` / ``decompress`` implementing the five-step
  pipeline (data-type conversion → blocking → orthonormal transform → binning →
  pruning) and its inverse.
* :class:`CompressedArray` — the compressed form ``{s, i, N, F}`` plus bookkeeping.
* ``repro.core.ops`` — the dozen compressed-space operations of Table I.
* :mod:`repro.core.codec` — bit-exact serialization and compression-ratio accounting.
* :mod:`repro.core.errors` — the §IV-D error bounds.

Typical usage::

    import numpy as np
    from repro import Compressor, CompressionSettings

    settings = CompressionSettings(block_shape=(4, 4, 4), float_format="float32",
                                   index_dtype="int16")
    compressor = Compressor(settings)
    compressed = compressor.compress(np.random.rand(40, 40, 66))
    round_tripped = compressor.decompress(compressed)
"""

from .blocking import block_array, crop_to_shape, pad_to_blocks, unblock_array
from .compressed import CompressedArray
from .compressor import Compressor
from .codec import (
    asymptotic_compression_ratio,
    compressed_size_bits,
    compression_ratio,
    deserialize,
    serialize,
)
from .errors import (
    binning_error_bound,
    block_l2_error,
    linf_error_bound,
    pruning_error,
)
from .pruning import (
    corner_pruning_mask,
    keep_all_mask,
    low_frequency_mask,
    top_k_mask,
)
from .settings import CompressionSettings
from .transforms import (
    Transform,
    dct_matrix,
    get_transform,
    haar_matrix,
    identity_matrix,
)

__all__ = [
    "CompressionSettings",
    "Compressor",
    "CompressedArray",
    "Transform",
    "get_transform",
    "dct_matrix",
    "haar_matrix",
    "identity_matrix",
    "block_array",
    "unblock_array",
    "pad_to_blocks",
    "crop_to_shape",
    "keep_all_mask",
    "low_frequency_mask",
    "corner_pruning_mask",
    "top_k_mask",
    "serialize",
    "deserialize",
    "compressed_size_bits",
    "compression_ratio",
    "asymptotic_compression_ratio",
    "binning_error_bound",
    "pruning_error",
    "linf_error_bound",
    "block_l2_error",
]
