"""``Cells``: a 0/1 matrix as its row-major bytes and its shape; and
``SolveResult``, the record a solve returns, with the frozen-record base
it shares with ``solvers.TiePolicy`` and ``solvers.Instance``.

The C sweep writes every matrix this way, and ``majpop solve`` writes the
cells to stdout as they are, so neither numpy nor the rest of
:mod:`majpop.completion` (which re-exports these names) is imported on the
way.  The extension module built from ``_sweep.c`` imports this module
when it loads, while ``majpop.solvers`` is still being imported, and
builds each ``SolveResult`` and its ``Cells`` itself; ``solvers``
re-exports both classes.
"""

from .majorization import IntVector

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
    never written after construction.  The C sweep allocates its ``Cells``
    without running ``__init__`` and sets the three slots itself: ``data``
    a ``bytes``, ``shape`` a tuple and ``_array`` None.
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


class _Record:
    """A frozen record with the behaviour of a frozen dataclass.

    ``__init__`` writes the fields straight into the instance ``__dict__``;
    any later assignment or deletion raises ``AttributeError``, and the repr
    lists ``_fields`` in order.  Written out rather than made with
    ``dataclasses``, whose import (with ``inspect``, ``ast`` and ``dis``)
    and class generation were the largest part of ``import majpop.cli``,
    which every ``majpop solve`` process pays.  So ``dataclasses.fields``,
    ``replace``, ``asdict`` and ``is_dataclass`` do not apply to these
    records; positional ``match`` does, through ``__match_args__``.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class SolveResult(_Record):
    """Solver output: witness matrix, objective in input order, sorted form.

    ``matrix`` is the read-only numpy ``uint8`` array.  The solvers store the
    sweep's ``Cells`` and the array is built on first access, so a result
    whose matrix is only written out never loads numpy.  Results compare
    and hash by identity.

    The C sweep (``_speedups.sweep``) returns a finished result: it
    allocates the record without running ``__init__`` and fills its
    ``__dict__`` in ``__init__``'s key order, with the objective and its
    nonincreasing form as tuples, ``feasible`` as ``delta > 0 or
    min(objective) >= 0`` (True for an empty objective), and the matrix as
    ``Cells``.  ``__init__`` builds the records the C code does not: those
    of a rank-compressed sweep, whose objective is moved back in Python.
    """

    _fields = __match_args__ = ("matrix", "objective", "canonical_objective", "feasible")

    def __init__(self, matrix: Matrix, objective: IntVector, canonical_objective: IntVector, feasible: bool):
        d = self.__dict__
        d["matrix"] = matrix
        d["objective"] = objective
        d["canonical_objective"] = canonical_objective
        d["feasible"] = feasible

    @property
    def matrix(self) -> Matrix:
        # A property is read before the ``__dict__`` entry of its name, which
        # keeps what the record was given (array-like either way, as
        # ``vars(result)`` shows it); ``Cells`` read as their array.
        value = self.__dict__["matrix"]
        return value.array() if isinstance(value, Cells) else value

    def to_json(self) -> dict:
        """The CLI payload.  ``"matrix"`` is the stored 0/1 value itself, not
        nested lists: for a solver's result, ``Cells``, which has ``.shape``
        and ``.tolist()`` and needs no numpy (``numpy.asarray`` on it gives
        the array).  ``majpop.cli._emit`` checks its bytes and streams them
        as JSON text, 64 KiB at a time, through ``_speedups.write_matrix``."""
        return {
            "feasible": self.feasible,
            "objective": list(self.objective),
            "canonical_objective": list(self.canonical_objective),
            "matrix": self.__dict__["matrix"],
        }
