"""The ``majpop`` subcommands other than ``solve`` and ``feasible``.

:func:`majpop.cli.main` imports this module only when one of them runs, so
a ``majpop solve`` process neither compiles nor imports it.  Each handler
takes the parsed arguments and the running ``cli`` module, whose helpers
(``load_instance``, ``_emit``, ...) it calls.  The module is handed over
rather than imported: under ``python -m majpop.cli`` it is ``__main__``,
and ``from .cli import ...`` would load ``cli.py`` a second time.
"""

import csv
import io
import time

from ._speedups import _MASK64
from .completion import construct_matrix, geth_vector
from .errors import BudgetExceededError, InternalInvariantError
from .majorization import conjugate, default_conjugate_dim
from .solvers import Instance, _SWEEPS, _splitmix64, enumerate_optima, feasible, solve

# Most entries ``conjugate`` writes; its output length is known before any
# memory is taken, so a longer one is refused as over budget.
_MAX_CONJUGATE_DIM = 10_000_000


def _parse_vector(cli, text: str, name: str) -> tuple[int, ...]:
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{name}: expected comma-separated integers, got {text!r}") from None
    return cli._check_json_vector(values, name)


def cmd_enumerate(args, cli) -> int:
    inst = cli.load_instance(args.instance)
    optima = enumerate_optima(inst, cap=args.max_branches)
    if not optima and feasible(inst):
        raise InternalInvariantError(
            f"variant {inst.variant}: the greedy capped sweep reached no completion "
            "of an instance that `majpop feasible` accepts"
        )
    payload = [
        {"objective": list(obj), "matrix": optima[obj]} for obj in sorted(optima)
    ]
    cli._emit({"count": len(payload), "optima": payload})
    return 0


def cmd_conjugate(args, cli) -> int:
    v = _parse_vector(cli, args.vector, "--vector")
    dim = args.dim if args.dim is not None else default_conjugate_dim(v)
    if dim > _MAX_CONJUGATE_DIM:
        raise BudgetExceededError(
            f"the conjugate would have {dim} entries; the output cap is {_MAX_CONJUGATE_DIM}"
        )
    cli._emit(list(conjugate(v, dim)))
    return 0


def cmd_geth(args, cli) -> int:
    c = _parse_vector(cli, args.ceiling, "--ceiling")
    t = _parse_vector(cli, args.threshold, "--threshold")
    cli._emit(list(geth_vector(c, t)))
    return 0


def cmd_construct(args, cli) -> int:
    r = _parse_vector(cli, args.row_sums, "--row-sums")
    x = _parse_vector(cli, args.col_sums, "--col-sums")
    cli._emit(construct_matrix(r, x))
    return 0


def cmd_lattice(args, cli) -> int:
    from . import lattice

    x = _parse_vector(cli, args.x, "--x")
    y = _parse_vector(cli, args.y, "--y")
    if args.lattice_op == "meet":
        cli._emit(list(lattice.meet(x, y)))
    elif args.lattice_op == "join":
        cli._emit(list(lattice.join(x, y)))
    else:
        cli._emit({"covers": lattice.covers(y, x)})
    return 0


def cmd_certify(args, cli) -> int:
    from . import oracle

    inst = cli.load_instance(args.instance)
    absent = _parse_vector(cli, args.absent, "--absent") if args.absent is not None else None
    report = oracle.certify(
        inst,
        max_cols=oracle.DEFAULT_MAX_COLS if args.max_cols is None else args.max_cols,
        max_total=oracle.DEFAULT_MAX_TOTAL if args.max_total is None else args.max_total,
        absent_canonical=absent,
    )
    cli._emit(report.to_json())
    return 0 if report.passed else 3


def _bench_instance(seed: int, m: int, n: int, rep: int):
    """Deterministic instance: fold (m, n, rep) into the seed, then draw."""
    state = seed & _MASK64
    for salt in (m, n, rep):
        state, _ = _splitmix64(state ^ salt)
    r = []
    for _ in range(m):
        state, z = _splitmix64(state)
        r.append(1 + z % n)
    lo = m // 2
    c = []
    for _ in range(n):
        state, z = _splitmix64(state)
        c.append(lo + z % (m - lo + 1))
    return tuple(r), tuple(c), state


def cmd_bench(args, cli) -> int:
    ms = [int(v) for v in args.rows.split(",")]
    ns = [int(v) for v in args.cols.split(",")]
    if args.repeats < 1 or any(v < 1 for v in ms + ns):
        raise ValueError("bench sizes and repeats must be positive")
    seed = cli._seed_from_args(args)
    policy_kind = cli._POLICY_FLAGS[args.tie_policy]
    records = []
    for m in ms:
        for n in ns:
            for rep in range(args.repeats):
                r, c, state = _bench_instance(seed, m, n, rep)
                inst = Instance(args.variant, r, **{_SWEEPS[args.variant][0]: c})
                policy = cli._tie_policy(policy_kind, state)
                t0 = time.perf_counter_ns()
                result = solve(inst, policy)
                t1 = time.perf_counter_ns()
                records.append(
                    {
                        "m": m,
                        "n": n,
                        "policy": args.tie_policy,
                        "seed": seed,
                        "wall_time_ns": t1 - t0,
                        "feasible": result.feasible,
                    }
                )
    if args.format == "json":
        cli._emit(records)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=["m", "n", "policy", "seed", "wall_time_ns", "feasible"])
        writer.writeheader()
        writer.writerows(records)
        cli._stdout().write(buf.getvalue())
    return 0
