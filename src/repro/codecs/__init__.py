"""Uniform codec protocol + registry over every compressor in the repository.

The paper's comparison (Figs 2–3, Table 1) pits the PyBlaz pipeline against
Blaz, a ZFP-style codec and an SZ-style codec.  This package makes "which
compressor" a runtime parameter instead of four parallel code paths: every
backend implements the :class:`Codec` protocol (``compress`` / ``decompress`` /
``to_bytes`` / ``from_bytes`` / ``compression_ratio`` / ``roundtrip_bound``
plus :class:`CodecCapabilities` flags), and a string-keyed registry maps names
to lazily imported implementations.  The CLI (``compress --codec``) and the
experiment/benchmark harnesses go through it.

Built-in codecs
---------------

==========  =========================================================  ======
name        implementation                                             magic
==========  =========================================================  ======
``pyblaz``  :class:`repro.codecs.pyblaz.PyBlazCodec` (the paper's      PBLZ
            compressor; 12 compressed-space operations)
``blaz``    :class:`repro.codecs.blaz.BlazCodec` (Martel 2022; 2-D,    BLZ1
            add/multiply in compressed space)
``zfp``     :class:`repro.codecs.zfp.ZFPCodec` (fixed-rate, 1–3-D)     ZFPL
``sz``      :class:`repro.codecs.sz.SZCodec` (error-bounded)           SZL1
``huffman`` :class:`repro.codecs.huffman.HuffmanCodec` (lossless)      HUF1
==========  =========================================================  ======

Registering a third-party codec
-------------------------------

Subclass :class:`Codec`, set ``name``/``magic``/``capabilities``, implement the
abstract methods, and register it — either eagerly with the class itself or
lazily with a ``"module:ClassName"`` spec so your module only imports when the
codec is first used::

    from repro.codecs import Codec, CodecCapabilities, register_codec

    class MyGPUCodec(Codec):
        name = "mygpu"
        magic = b"MYG1"
        capabilities = CodecCapabilities(ndims=(2, 3))
        ...  # compress / decompress / to_bytes / from_bytes /
             # compression_ratio / roundtrip_bound

    register_codec("mygpu", MyGPUCodec)
    # or, deferring the import (e.g. from an entry point):
    register_codec("mygpu", "my_package.codecs:MyGPUCodec", magic=b"MYG1")

After registration the codec is a first-class citizen everywhere:
``repro compress --codec mygpu``, ``get_codec("mygpu")``, and the cross-codec
property/benchmark suites pick it up from :func:`available_codecs`.  (Chunked
stores hold pyblaz chunks only.)  Re-registering an existing name replaces it, so an
optimized third-party binding can transparently override a built-in.
"""

from .base import Codec, CodecCapabilities
from .registry import (
    available_codecs,
    detect_codec,
    get_codec,
    get_codec_class,
    register_codec,
)

__all__ = [
    "Codec",
    "CodecCapabilities",
    "register_codec",
    "get_codec",
    "get_codec_class",
    "available_codecs",
    "detect_codec",
]

# Built-in registrations: lazy "module:Class" specs with explicit magics, so
# listing codecs or sniffing a stream's magic never imports the implementations.
register_codec("pyblaz", "repro.codecs.pyblaz:PyBlazCodec", magic=b"PBLZ")
register_codec("blaz", "repro.codecs.blaz:BlazCodec", magic=b"BLZ1")
register_codec("zfp", "repro.codecs.zfp:ZFPCodec", magic=b"ZFPL")
register_codec("sz", "repro.codecs.sz:SZCodec", magic=b"SZL1")
register_codec("huffman", "repro.codecs.huffman:HuffmanCodec", magic=b"HUF1")
