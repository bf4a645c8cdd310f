"""Desk-scale federated class-continual learning with diffusion-based replay.

The package simulates a sequence of class-disjoint tasks learned by a
small federation: a frozen pretrained diffusion generator is inverted
per class into compact embeddings, those embeddings regenerate data for
finished tasks, and the federated classifier trains on real plus
generated data. Finetune and EWC baselines share the same harness.
"""

import os

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1  # mallopt parameter numbers from glibc's malloc.h
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's largest allowed value on 64-bit
TRIM_THRESHOLD_BYTES = 8 << 20


def pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; False where the C library is not glibc.

    By default glibc raises its mmap threshold to the largest mmapped
    block freed so far and trims the heap whenever more than twice that
    is free at its top. Whether a training step's graph temporaries are
    returned to the kernel and faulted back in on the next step then
    depends on the order in which arrays were freed: moving Adam's
    update in place raised a DDDR run's page faults 2.6-fold. With
    fixed thresholds arrays below 32 MB come from the heap, and the heap
    is trimmed only when more than 8 MB is free at its top.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)) and bool(
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
    )


pin_malloc_thresholds()
