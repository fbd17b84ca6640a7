"""``Cells``: a 0/1 matrix as its row-major bytes and its shape.

The C sweep writes every matrix this way, and ``majpop solve`` writes the
cells to stdout as they are, so neither numpy nor the rest of
:mod:`majpop.completion` (which re-exports these names) is imported on the
way.
"""

# A 2-D numpy uint8 array of 0/1 entries, named by string so that this
# module can be imported without numpy.
Matrix = "numpy.ndarray"


def _frozen(a: Matrix) -> Matrix:
    # Matrices are value types; freezing guards against accidental mutation.
    a.setflags(write=False)
    return a


class Cells:
    """A 0/1 matrix as its row-major cells (a bytes-like value of 0 and 1
    bytes) and its shape ``(m, n)``, usable without numpy.

    ``tolist()`` gives the nested lists; ``array()``, and ``numpy.asarray``
    through ``__array__``, give the read-only ``uint8`` array, built once on
    first use.  The array shares memory with ``data``, which is therefore
    never written after construction.
    """

    __slots__ = ("data", "shape", "_array")

    def __init__(self, data, shape: tuple[int, int]):
        self.data = data
        self.shape = shape
        self._array = None

    def tolist(self) -> list[list[int]]:
        m, n = self.shape
        return [list(self.data[i * n : (i + 1) * n]) for i in range(m)]

    def array(self) -> Matrix:
        if self._array is None:
            import numpy as np

            self._array = _frozen(np.frombuffer(self.data, dtype=np.uint8).reshape(self.shape))
        return self._array

    def __array__(self, dtype=None, copy=None):
        import numpy as np

        return np.array(self.array(), dtype=dtype, copy=copy)
