"""The kernel-backend protocol: how the transform+binning hot loop is executed.

A :class:`KernelBackend` realises the two numeric kernels at the heart of the
pipeline — the fused forward transform → per-block maxima → binning step of
compression, and the inverse transform of decompression — for one *execution
strategy*.  The strategy is orthogonal to *what* is computed: every backend
consumes the same blocked arrays and :class:`repro.core.settings.CompressionSettings`
and produces the same ``(maxima, indices)`` contract, so backends are
interchangeable everywhere a :class:`repro.core.Compressor` runs.

Exactness contract
------------------

Backends come in two exactness classes, advertised by :attr:`KernelBackend.bit_exact`:

* **Bit-exact** backends (``reference``) fix the per-element summation order, so
  transforming any subset of blocks is bit-identical to transforming them all at
  once.  This is the invariant the streaming :class:`repro.streaming.ChunkedCompressor`
  and the golden-file suites rest on.
* **Fast** backends (``gemm``, ``numba``) are free to reassociate the contraction
  (BLAS kernels, optionally float32 accumulation).  Their results agree with
  ``reference`` within the documented :meth:`KernelBackend.accumulation_tolerance`:
  every transform coefficient is within ``tol × N`` of the reference coefficient,
  where ``N`` is the block's maximum coefficient magnitude.  :func:`parity_bound`
  turns that per-coefficient bound into a decompressed-value bound the parity
  suite asserts.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.settings import CompressionSettings
    from ..core.transforms import Transform

__all__ = ["KernelBackend", "parity_bound"]


class KernelBackend(abc.ABC):
    """One execution strategy for the transform+binning hot loop.

    Class attributes
    ----------------
    name:
        Registry key (lower-case identifier).
    bit_exact:
        Whether results are bit-identical to the ``reference`` backend for every
        input and every chunking of the block grid.
    summary:
        One-line human-readable description for the CLI ``backends`` listing.
    """

    name: ClassVar[str] = "abstract"
    bit_exact: ClassVar[bool] = False
    summary: ClassVar[str] = ""

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend can run in the current environment."""
        return True

    @classmethod
    def unavailable_reason(cls) -> str | None:
        """Why :meth:`is_available` is False (``None`` when available)."""
        return None

    # ------------------------------------------------------------------ kernels
    @abc.abstractmethod
    def transform_and_bin(
        self,
        blocked: np.ndarray,
        transform: "Transform",
        settings: "CompressionSettings",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused forward transform → per-block maxima → integer binning.

        Parameters
        ----------
        blocked:
            ``(grid..., block...)``-shaped array from
            :func:`repro.core.blocking.block_array`.
        transform:
            The separable orthonormal transform matching ``settings``.
        settings:
            The compression configuration (block shape, index dtype, ...).

        Returns
        -------
        tuple
            ``(maxima, indices)``: float64 per-block maxima shaped like the grid
            axes, and bin indices of ``settings.index_dtype`` shaped like
            ``blocked``.
        """

    @abc.abstractmethod
    def inverse_transform(
        self,
        coefficients: np.ndarray,
        transform: "Transform",
        settings: "CompressionSettings",
    ) -> np.ndarray:
        """Inverse transform of blocked coefficients back into blocked data."""

    # ------------------------------------------------------------------ contract
    def accumulation_tolerance(self, settings: "CompressionSettings") -> float:
        """Per-coefficient error bound relative to the block maximum ``N``.

        For any input, each transform coefficient produced by this backend is
        within ``accumulation_tolerance(settings) × N`` of the ``reference``
        coefficient of the same block.  Bit-exact backends return ``0.0``; fast
        backends derive it from the accumulation dtype and the contraction
        length (see :func:`repro.kernels.gemm.accumulation_tolerance`).
        """
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, bit_exact={self.bit_exact})"


def parity_bound(
    backend: KernelBackend,
    settings: "CompressionSettings",
    maxima: np.ndarray,
) -> float:
    """L∞ bound on ``|decompress(backend) − decompress(reference)|``.

    A per-coefficient perturbation of ``tol × N`` moves the scaled bin value by
    at most ``tol × r`` (``r`` the index radius), so after rounding the bin
    indices differ by at most ``tol × r + 1``; unbinning multiplies back by
    ``N / r``.  The stored maxima themselves may differ by one working-format
    ulp (``ε_fmt × N``), perturbing every coefficient of the block.  Basis
    amplitudes are ≤ 1, so summing the ``B`` per-coefficient errors bounds the
    per-element error; a 2× safety factor absorbs float64 arithmetic noise.
    """
    tol = backend.accumulation_tolerance(settings)
    radius = float(settings.index_radius)
    eps_fmt = settings.float_format.machine_epsilon
    n_max = float(np.max(maxima, initial=0.0))
    per_coefficient = n_max * (tol + 1.0 / radius + eps_fmt)
    return 2.0 * settings.block_size * per_coefficient
