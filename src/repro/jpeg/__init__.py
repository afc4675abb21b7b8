"""From-scratch baseline JPEG codec (ITU-T T.81), staged like the paper's
FPGA decoder: parser -> Huffman -> iDCT -> color -> resize.

The encoder exists to synthesise experiment corpora (real JPEG bytes);
the decoder is the functional core shared by the CPU backend, the nvJPEG
model and the FPGA decoder model.
"""

from .bitstream import BitReader, BitWriter, EndOfScan
from .color import rgb_to_ycbcr, subsample_420, upsample_420, ycbcr_to_rgb
from .dct import fdct2, idct2, idct2_dequant
from .decoder import (coefficients_to_planes, decode, decode_resized,
                      entropy_decode, planes_to_image)
from .encoder import encode
from .errors import (BadHuffmanCodeError, BadMarkerError, JpegDecodeError,
                     TruncatedStreamError)
from .huffman import (STD_AC_CHROMA, STD_AC_LUMA, STD_DC_CHROMA, STD_DC_LUMA,
                      HuffmanTable, build_table_from_freqs)
from .jfif import (FrameHeader, JpegFormatError, Marker, ParsedJpeg,
                   parse_jpeg)
from .quant import (STD_CHROMA_QTABLE, STD_LUMA_QTABLE, scale_qtable,
                    zigzag_flatten, zigzag_unflatten)
from .resize import resize_bilinear

__all__ = [
    "encode", "decode", "decode_resized", "parse_jpeg", "entropy_decode",
    "coefficients_to_planes", "planes_to_image",
    "BitReader", "BitWriter", "EndOfScan",
    "HuffmanTable", "build_table_from_freqs",
    "STD_DC_LUMA", "STD_AC_LUMA", "STD_DC_CHROMA", "STD_AC_CHROMA",
    "STD_LUMA_QTABLE", "STD_CHROMA_QTABLE", "scale_qtable",
    "zigzag_flatten", "zigzag_unflatten",
    "fdct2", "idct2", "idct2_dequant",
    "rgb_to_ycbcr", "ycbcr_to_rgb", "subsample_420", "upsample_420",
    "resize_bilinear",
    "FrameHeader", "ParsedJpeg", "Marker", "JpegFormatError",
    "JpegDecodeError", "TruncatedStreamError", "BadMarkerError",
    "BadHuffmanCodeError",
]
