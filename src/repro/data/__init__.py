"""Synthetic corpora matching the paper's datasets."""

from .datasets import (functional_jpeg_manifest, imagenet_like_manifest,
                       jpeg_size_sampler, mnist_like_manifest,
                       synthetic_photo)

__all__ = ["imagenet_like_manifest", "mnist_like_manifest",
           "functional_jpeg_manifest", "synthetic_photo",
           "jpeg_size_sampler"]
