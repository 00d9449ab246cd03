"""Scratch memory that outlives the call: the one array convention.

Code that makes arrays on a hot path takes them from an `alloc(shape, dtype)`
callable, which hands out arrays like `np.empty` and writes into them with
`out=`. `np.empty` is one such callable; `Workspace.take` is the other, and
reuses one thread's buffers from call to call, so that in steady state the
caller allocates, frees and page-faults nothing of that size.
"""

import contextlib
import math
import threading

import numpy as np


class Workspace(threading.local):
    """One thread's scratch memory.

    The i-th `take` of a frame is a view of the i-th buffer, kept across
    calls and grown only when a request outsizes it. Frames stack: `frame()`
    hands out the slots after those its caller holds and releases them at
    exit, so a nested request never takes a slot an outer one still uses,
    and a repeated frame reuses the same slots.
    """

    def __init__(self):
        self.slots, self.next = [], 0  # per request: (shape, dtype), its view, the buffer

    def take(self, shape, dtype=float):
        i, self.next = self.next, self.next + 1
        if i == len(self.slots):
            self.slots.append((None, None, np.empty(0, np.uint8)))
        key, view, buf = self.slots[i]
        if key != (shape, dtype):
            size = shape if isinstance(shape, int) else math.prod(shape)
            nbytes = size * np.dtype(dtype).itemsize
            if buf.size < nbytes:
                buf = np.empty(nbytes, np.uint8)
            view = buf[:nbytes].view(dtype).reshape(shape)
            self.slots[i] = ((shape, dtype), view, buf)
        return view

    def release(self, nbytes: int) -> None:
        """Drop the buffers over `nbytes` bytes of the slots no frame holds."""
        for i in range(self.next, len(self.slots)):
            if self.slots[i][2].nbytes > nbytes:
                self.slots[i] = (None, None, np.empty(0, np.uint8))

    @contextlib.contextmanager
    def frame(self):
        """`take`, for requests released when the block ends."""
        top = self.next
        try:
            yield self.take
        finally:
            self.next = top
