"""Command-line interface.

Results go to stdout as JSON (CSV for ``bench``); diagnostics go to stderr.
Every JSON payload goes through one encoder, ``_emit``, which writes bytes
to ``sys.stdout.buffer``; ``bench``'s CSV text goes to ``sys.stdout``.
Each 0/1 matrix, ``Cells`` from ``solve`` or a frozen C-order ``uint8``
array from ``enumerate`` and ``construct``, is checked in C before the
first byte goes out, then streamed as JSON text by
``_speedups.write_matrix`` in 64 KiB chunks, so no matrix's whole text is
ever held; everything else goes to ``json.dumps``.  The output equals
``json.dumps(payload, separators=(",", ":"), sort_keys=True)`` of the
payload with each matrix as nested lists, without building those lists.
Only ``solve`` and ``feasible`` are handled here; the other commands'
handlers are in ``majpop._commands``, which ``main`` imports when one of
them runs.  So ``solve`` imports neither numpy nor ``completion``,
``lattice``, ``oracle`` and ``dataclasses``.  The ``majpop``
command is ``run``: ``main``, a flush, and ``os._exit``, which skips the
garbage collection of interpreter shutdown; ``main`` itself returns.
Exit codes: 0 success, 1 infeasible instance, 2 invalid input, exceeded
budget or a failed write to stdout (a closed stdout included), 3 internal
error: a violated invariant or any other exception, each with one line on
stderr.  Given the same arguments and seed, every
subcommand except ``bench`` (whose records carry wall times) writes
byte-identical output.
"""

import argparse
import errno
import json
import os
import sys
from typing import Optional, Sequence

from . import _speedups
from ._cells import Cells
from ._speedups import _MASK64
from .errors import BudgetExceededError, InfeasibleError, InternalInvariantError
from .solvers import Instance, TiePolicy, feasible, solve

_POLICY_FLAGS = {
    "random": "uniform_random",
    "lowest-index": "lowest_index",
    "highest-index": "highest_index",
    "load-order": "load_order",
}

_INSTANCE_KEYS = frozenset(("variant", "row_sums", "ceiling", "base", "reference"))


def _check_json_vector(data, name: str) -> tuple[int, ...]:
    """An instance file's array, or a parsed command-line vector, as a tuple."""
    if not isinstance(data, list):
        raise ValueError(f"{name}: expected an array of nonnegative integers")
    out = []
    for k, v in enumerate(data):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{name}[{k}]: expected an integer, got {v!r}")
        if v < 0:
            raise ValueError(f"{name}[{k}]: negative value {v}")
        if v > _MASK64:
            raise ValueError(f"{name}[{k}]: {v} does not fit in 64 bits")
        out.append(v)
    return tuple(out)


def load_instance(path: str) -> Instance:
    """Read and validate an instance file, naming any offending field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    unknown = set(data) - _INSTANCE_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown field {sorted(unknown)[0]!r}")
    if "variant" not in data:
        raise ValueError(f"{path}: missing field 'variant'")
    if "row_sums" not in data:
        raise ValueError(f"{path}: missing field 'row_sums'")
    kwargs = {"variant": data["variant"], "row_sums": _check_json_vector(data["row_sums"], "row_sums")}
    for name in ("ceiling", "base", "reference"):
        if name in data:
            kwargs[name] = _check_json_vector(data[name], name)
    return Instance(**kwargs)


def _seed_from_args(args) -> int:
    """``--seed``, else ``MAJPOP_SEED`` (unset or empty reads as 0)."""
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("MAJPOP_SEED") or 0)


def _tie_policy(kind: str, seed: int) -> TiePolicy:
    """The policy ``kind``; only ``uniform_random`` keeps the seed."""
    return TiePolicy(kind, seed) if kind == "uniform_random" else TiePolicy(kind)


def _matrix(matrix) -> tuple:
    """A 0/1 matrix as ``_speedups.write_matrix`` takes it: its cells, row
    after row with unit stride, and its shape.  ``Cells`` from ``solve``
    give their bytes; any other value must be a 2-D ``uint8`` buffer, such
    as a numpy array from ``enumerate`` or ``construct``, which are C-order.
    An array in any other memory order is copied to C order first."""
    if isinstance(matrix, Cells):
        return (matrix.data, *matrix.shape)
    view = memoryview(matrix)
    if view.format != "B" or view.ndim != 2:
        raise InternalInvariantError(
            f"expected a 2-D uint8 matrix, got format {view.format!r}, shape {view.shape}"
        )
    return (view if view.c_contiguous else view.tobytes(), *view.shape)


def _encode(value, parts: list) -> None:
    """Append the compact, key-sorted JSON text of ``value`` to ``parts``.

    ``parts`` alternates ``str`` and matrices: text goes onto its last
    item, a ``str``, and each matrix goes in as ``_matrix`` gives it,
    checked by ``_speedups.write_matrix`` with no ``write``, followed by a
    new ``str``.  A value with no matrix inside goes to ``json.dumps``
    whole, so a long flat list costs no per-entry Python work;
    ``json.dumps`` raises ``TypeError`` at a matrix, and only then is the
    dict or list walked.
    """
    try:
        parts[-1] += json.dumps(value, separators=(",", ":"), sort_keys=True)
    except TypeError:
        if isinstance(value, dict):
            for k, key in enumerate(sorted(value)):
                if not isinstance(key, str):
                    raise InternalInvariantError(f"JSON object key {key!r} is not a string") from None
                parts[-1] += ("," if k else "{") + json.dumps(key) + ":"
                _encode(value[key], parts)
            parts[-1] += "}"
        elif isinstance(value, (list, tuple)):
            for k, item in enumerate(value):
                parts[-1] += "," if k else "["
                _encode(item, parts)
            parts[-1] += "]"
        else:
            matrix = _matrix(value)
            _speedups.write_matrix(*matrix, None)
            parts += [matrix, ""]


def _write_all(out, data) -> None:
    """Write every byte of ``data``; under ``python -u`` stdout's buffer is a
    raw ``FileIO``, which may take fewer bytes than it is given."""
    view = memoryview(data)
    while view:
        written = out.write(view)
        if written is None:
            raise BlockingIOError("stdout would block")
        view = view[written:]


def _stdout():
    """``sys.stdout``; when it is None, as in a process started with file
    descriptor 1 closed, an ``OSError`` like that of any failed write."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    return sys.stdout


def _emit(payload) -> None:
    """Write ``payload`` and a newline to stdout as bytes, then flush.

    Every matrix is checked while the payload is encoded, before the first
    byte goes out, so a payload that fails leaves stdout empty.  Then the
    text parts go out as they are and each matrix is streamed by
    ``_speedups.write_matrix``, 64 KiB at a time, to the same ``write``.
    """
    parts = [""]
    _encode(payload, parts)
    parts[-1] += "\n"
    stdout = _stdout()
    # Text written through sys.stdout before this goes first.
    stdout.flush()
    out = getattr(stdout, "buffer", stdout)
    for k, part in enumerate(parts):
        if k % 2:
            _speedups.write_matrix(*part, out.write)
        else:
            _write_all(out, part.encode("ascii"))
    out.flush()


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    result = solve(inst, _tie_policy(_POLICY_FLAGS[args.tie_policy], _seed_from_args(args)))
    _emit(result.to_json())
    return 0 if result.feasible else 1


def _cmd_feasible(args) -> int:
    inst = load_instance(args.instance)
    ok = feasible(inst)
    _emit({"feasible": ok})
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majpop",
        description="Optimal 0/1-matrix completion with majorization-ordered objectives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_policy_flags(p):
        p.add_argument(
            "--tie-policy",
            choices=sorted(_POLICY_FLAGS),
            default="lowest-index",
            help="how tied columns are resolved",
        )
        p.add_argument("--seed", type=int, default=None, help="seed for --tie-policy random (or MAJPOP_SEED)")

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--instance", required=True)
    add_policy_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("enumerate", help="list every optimal objective vector")
    p.add_argument("--instance", required=True)
    p.add_argument("--max-branches", type=int, default=1_000_000)
    p.set_defaults(func="cmd_enumerate")

    p = sub.add_parser("feasible", help="report instance feasibility")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_feasible)

    p = sub.add_parser("conjugate", help="partition conjugate of a vector")
    p.add_argument("--vector", required=True)
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func="cmd_conjugate")

    p = sub.add_parser("geth", help="vector below a threshold within capacities")
    p.add_argument("--ceiling", required=True)
    p.add_argument("--threshold", required=True)
    p.set_defaults(func="cmd_geth")

    p = sub.add_parser("construct", help="build a 0/1 matrix with given line sums")
    p.add_argument("--row-sums", required=True)
    p.add_argument("--col-sums", required=True)
    p.set_defaults(func="cmd_construct")

    p = sub.add_parser("lattice", help="dominance-lattice operations")
    lat = p.add_subparsers(dest="lattice_op", required=True)
    for op in ("meet", "join", "covers"):
        q = lat.add_parser(op)
        q.add_argument("--x", required=True, help="partition (comma-separated)")
        q.add_argument("--y", required=True, help="partition (comma-separated)")
        q.set_defaults(func="cmd_lattice")

    p = sub.add_parser("oracle", help="brute-force certification")
    orc = p.add_subparsers(dest="oracle_op", required=True)
    q = orc.add_parser("certify")
    q.add_argument("--instance", required=True)
    q.add_argument("--absent", default=None, help="vector expected absent from the canonical attainable set")
    # Unset reads as the oracle's default, looked up when the command runs.
    q.add_argument("--max-cols", type=int, default=None)
    q.add_argument("--max-total", type=int, default=None)
    q.set_defaults(func="cmd_certify")

    p = sub.add_parser("bench", help="time the solver over size grids, emit records")
    p.add_argument("--rows", required=True, help="comma-separated row counts")
    p.add_argument("--cols", required=True, help="comma-separated column counts")
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--variant", choices=["min_remaining", "min_combined"], default="min_remaining")
    add_policy_flags(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func="cmd_bench")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if isinstance(args.func, str):
            # A handler in ``_commands``, which only its commands import.  It
            # gets this module, which under ``python -m`` is ``__main__``.
            from . import _commands

            return getattr(_commands, args.func)(args, sys.modules[__name__])
        return args.func(args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # MemoryError included: a fault, never "infeasible"
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def run() -> None:
    """The ``majpop`` command: ``main``, a flush, and an exit without shutdown.

    ``os._exit`` skips the interpreter's shutdown, whose garbage collection
    walks every live object.
    Every payload is flushed inside ``main``, so a failed write already has
    its exit code and stderr line; a flush here that fails after a
    successful run reports the same way, and never leaves exit 0.
    """
    code = main()
    try:
        _stdout().flush()
    except Exception as exc:
        if code == 0:
            print(f"invalid input: {exc}", file=sys.stderr)
            code = 2
    try:
        sys.stderr.flush()
    except Exception:
        code = code or 2
    os._exit(code)


if __name__ == "__main__":
    run()
