"""Command line driver.

Every subcommand emits a single report with the same envelope:

    {
      "tool_version": "...",
      "seed": 0,
      "inputs": {"<path>": "sha256:<hex>", ...},
      "result": {...},
      "checks": {...}
    }

``inputs`` digests the exact bytes of every file the command parsed, a
``.qstr`` file that an ``.ens`` or ``.qm`` file names included, keyed by
the path as opened; ``fock.read_text`` records them while ``main`` runs.

Numeric fields are printed with 9 significant digits and keys are
sorted, so a rerun with the same inputs and seed is byte-identical.
JSON is the canonical format, and ``--format text`` renders the same
report as flat ``key = value`` lines.  ``--format csv`` is offered only
by the subcommands with a table, ``lossy`` (one row per ``--n``, any
number of them) and ``multicopy``; the header is the key order of the
rows.  Every other subcommand takes ``--format json|text``.

Exit codes: 0 success, 1 domain error (structured error record),
2 usage error, 3 I/O error, 4 malformed input file (including one that
is not UTF-8).  A usage error is raised before any file is read or
written.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import sys
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .errors import FormatError, QFockError
from .fock import (
    _READS,
    EPS_TOKEN,
    NORM_TOL,
    average_length,
    base_length,
    dump_qstring,
    format_bits,
    pair_decode,
    pair_encode,
    parse_bits,
    read_qstring_file,
    self_delimit,
    write_qstring_file,
    write_text,
)
from .codes import (
    PROB_TOL,
    PrefixCode,
    code_table_text,
    expected_length,
    in_entropy_window,
    kraft_feasible,
    kraft_sum,
    shannon_code,
    shannon_entropy,
)
from .complexity import (
    WEIGHT_SUM_TOL,
    ComplexityEstimate,
    Describer,
    MachineCatalog,
    fidelity_penalized_complexity,
    identity_machine,
    machine_complexity,
    machine_from_code,
    read_machine_file,
    read_program_table,
    self_delimit_machine,
    universal_complexity,
)

if TYPE_CHECKING:
    from .experiments import InequalitySpec

# linalg and qcode load numpy, and experiments is slow to import (its report
# dataclasses), so the handlers that need them import them there; the other
# subcommands start without numpy.

SIG_DIGITS = 9


class _UsageError(Exception):
    """Raised for option combinations argparse cannot express."""


def _canon(value):
    """Clamp floats to 9 significant digits and plain Python types."""
    if isinstance(value, (int, str)) or value is None:  # bool is an int
        return value
    if isinstance(value, float):
        return float(format(value, f".{SIG_DIGITS}g"))
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if hasattr(value, "item"):  # numpy scalars
        return _canon(value.item())
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _envelope(seed: int, reads: dict[str, bytes], result: dict, checks: dict) -> dict:
    return {
        "tool_version": __version__,
        "seed": seed,
        "inputs": {
            path: "sha256:" + hashlib.sha256(data).hexdigest()
            for path, data in reads.items()
        },
        "result": _canon(result),
        "checks": _canon(checks),
    }


def _emit_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit_text(report: dict) -> str:
    lines = [
        f"tool_version = {report['tool_version']}",
        f"seed = {report['seed']}",
    ]
    for path, digest in sorted(report["inputs"].items()):
        lines.append(f"input {path} = {digest}")
    for section in ("result", "checks"):
        for key in sorted(report[section]):
            lines.append(f"{section}.{key} = {json.dumps(report[section][key], sort_keys=True)}")
    return "\n".join(lines) + "\n"


def _emit_csv(report: dict, rows: list[dict]) -> str:
    columns = list(rows[0])
    out = io.StringIO()
    out.write(f"# tool_version={report['tool_version']}\n")
    out.write(f"# seed={report['seed']}\n")
    out.write(",".join(columns) + "\n")
    for row in rows:
        out.write(",".join(json.dumps(_canon(row[c])) for c in columns) + "\n")
    return out.getvalue()


def _parse_list(text: str, conv: Callable[[str], object], what: str) -> list:
    """The comma-separated values of an option; empty entries are skipped."""
    try:
        return [conv(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"bad {what} list {text!r}: {exc}") from exc


def _parse_bits_arg(token: str) -> str:
    """A bitstring option, by the token rule of the files (``fock.parse_bits``)."""
    try:
        return parse_bits(token)
    except FormatError:
        raise _UsageError(
            f"bad bitstring argument {token!r} (use '{EPS_TOKEN}' for empty)"
        ) from None


def _code_fields(code: PrefixCode) -> dict:
    """Codewords in index order, their lengths, and the code's table text."""
    words = [code.table[i] for i in sorted(code.table)]
    return {
        "codewords": [format_bits(w) for w in words],
        "lengths": [len(w) for w in words],
        "table_text": code_table_text(code),
    }


def _decomposition(est: ComplexityEstimate) -> dict:
    """Program tokens to weights, sorted by program."""
    return {format_bits(p): w for p, w in sorted(est.decomposition.items())}


def _require_machines(args) -> None:
    """Refuse a catalog command with no machine, before any file is read."""
    if not (args.machine or args.identity is not None or args.sd_identity is not None):
        raise _UsageError("no machines given; use --machine, --identity or --sd-identity")


def _build_catalog(args, first: Sequence[Describer] = ()) -> MachineCatalog:
    """Catalog of ``first``, the --machine files, then --identity/--sd-identity."""
    machines = [*first, *(read_machine_file(path) for path in args.machine or [])]
    if getattr(args, "identity", None) is not None:
        machines.append(identity_machine(args.identity))
    if args.sd_identity is not None:
        machines.append(self_delimit_machine(identity_machine(args.sd_identity)))
    return MachineCatalog(machines)


def _density(path: str):
    """The density operator of the ensemble file at ``path``."""
    from .linalg import density_from_ensemble, read_ensemble_file

    return density_from_ensemble(read_ensemble_file(path))


def _spectrum_fields(rho) -> dict:
    """Dimension, entropy and eigenvalues of ``rho``."""
    from .linalg import eig_hermitian, entropy_of_spectrum

    eigenvalues = eig_hermitian(rho).eigenvalues
    return {
        "dim": rho.dim,
        "entropy": entropy_of_spectrum(eigenvalues),
        "eigenvalues": [float(x) for x in eigenvalues],
    }


# --- subcommands ---------------------------------------------------------------
# Each subcommand is declared once, on its handler: name, help line, options
# (argparse flags and keywords) and, for the commands with a csv table, the
# function that reads the table's rows off the result.  A handler returns
# (result, checks); the report's inputs are the files fock.read_text recorded
# while it ran.  Usage errors are raised before any file is read or written.

class _Command(NamedTuple):  # not a dataclass: that adds about 1 ms to every start-up
    handler: Callable[[argparse.Namespace], tuple[dict, dict]]
    help: str
    options: tuple[tuple[tuple, dict], ...]
    table: Callable[[dict], list[dict]] | None


_HANDLERS: dict[str, _Command] = {}


def _command(name: str, help_text: str, *options, table=None):
    """Register the decorated handler as subcommand ``name``."""

    def register(handler):
        _HANDLERS[name] = _Command(handler, help_text, options, table)
        return handler

    return register


def _opt(*flags, **kwargs) -> tuple[tuple, dict]:
    """One option, as the arguments of ``add_argument``."""
    return flags, kwargs


_STATE = _opt("--state", required=True)
_RHO = _opt("--rho", required=True)
_OUT_STATE = _opt("--out-state")
_P = _opt("--p", required=True)
_MACHINES = _opt("--machine", action="append")
_IDENTITY = _opt("--identity", type=int)
_SD_IDENTITY = _opt("--sd-identity", type=int)


@_command("avglen", "average length of a state", _STATE)
def _cmd_avglen(args):
    state = read_qstring_file(args.state)
    return ({"average_length": average_length(state), "terms": len(state)}, {})


@_command("baselen", "base (maximum) length of a state", _STATE)
def _cmd_baselen(args):
    state = read_qstring_file(args.state)
    return ({"base_length": base_length(state)}, {})


@_command("pair", "self-delimiting pair encoding", _opt("--x"), _opt("--y"), _opt("--decode"))
def _cmd_pair(args):
    if args.decode is not None:
        if args.x is not None or args.y is not None:
            raise _UsageError("--decode excludes --x/--y")
        z = _parse_bits_arg(args.decode)
        try:
            x, y = pair_decode(z)
        except ValueError as exc:  # the library's error for a malformed code
            raise _UsageError(f"bad pair encoding {args.decode!r}: {exc}") from exc
        return ({"x": format_bits(x), "y": format_bits(y)}, {})
    if args.x is None or args.y is None:
        raise _UsageError("need both --x and --y (or --decode)")
    x = _parse_bits_arg(args.x)
    y = _parse_bits_arg(args.y)
    encoded = pair_encode(x, y)
    checks = {"roundtrip": pair_decode(encoded) == (x, y)}
    return ({"encoded": encoded, "length": len(encoded)}, checks)


@_command("selfdelim", "apply the self-delimiting transform to a state", _STATE, _OUT_STATE)
def _cmd_selfdelim(args):
    state = read_qstring_file(args.state)
    out = self_delimit(state)
    if args.out_state:
        write_qstring_file(args.out_state, out)
    lin, lout = average_length(state), average_length(out)
    result = {"text": dump_qstring(out), "average_length_in": lin, "average_length_out": lout}
    # lout - (2 lin + 1) is the squared norm of the state minus 1
    return (result, {"length_law": abs(lout - (2.0 * lin + 1.0)) <= NORM_TOL})


@_command("entropy", "von Neumann entropy of an ensemble's density operator", _RHO)
def _cmd_entropy(args):
    from .linalg import EIG_CLAMP

    result = _spectrum_fields(_density(args.rho))
    return (result, {"psd": min(result["eigenvalues"]) >= -EIG_CLAMP})


@_command("shannon", "Shannon entropy of a probability vector", _P)
def _cmd_shannon(args):
    probs = _parse_list(args.p, float, "probability")
    return ({"entropy": shannon_entropy(probs)}, {})


@_command("code", "canonical code with lengths ceil(-log2 p)", _P)
def _cmd_code(args):
    probs = _parse_list(args.p, float, "probability")
    code = shannon_code(probs)
    h = shannon_entropy(probs)
    e = expected_length(code, probs)
    return (
        {**_code_fields(code), "expected_length": e, "entropy": h},
        {
            "kraft_feasible": kraft_feasible(len(w) for w in code.table.values()),
            "sandwich": in_entropy_window(e, h),
        },
    )


@_command("kraft", "Kraft sum of codeword lengths", _opt("--lengths", required=True))
def _cmd_kraft(args):
    lengths = _parse_list(args.lengths, int, "length")
    if not lengths:
        raise _UsageError("no lengths given")
    if min(lengths) < 0:
        raise _UsageError(f"negative length in {args.lengths!r}")
    return (
        {"kraft_sum": kraft_sum(lengths), "count": len(lengths)},
        {"feasible": kraft_feasible(lengths)},
    )


@_command("sw", "lossless code of a density operator", _RHO)
def _cmd_sw(args):
    from .qcode import sw_report

    code, report = sw_report(_density(args.rho))
    return (
        {**_code_fields(code.words), **dataclasses.asdict(report)},
        {
            "kraft_feasible": kraft_feasible(code.words.lengths().values()),
            "sandwich": in_entropy_window(report.expected_avg_length, report.entropy),
        },
    )


@_command("encode", "encode a state with the lossless code of rho", _RHO, _STATE, _OUT_STATE)
def _cmd_encode(args):
    from .qcode import encode_qstring, sw_lossless_code

    rho = _density(args.rho)
    state = read_qstring_file(args.state)
    code = sw_lossless_code(rho)
    encoded = encode_qstring(code, state)
    if args.out_state:
        write_qstring_file(args.out_state, encoded)
    return (
        {
            "text": dump_qstring(encoded),
            "average_length": average_length(encoded),
            "input_average_length": average_length(state),
        },
        {},
    )


@_command(
    "lossy", "typical-subspace projection of n encoded copies",
    _RHO, _opt("--n", required=True), _opt("--delta", type=float, required=True),
    table=lambda result: result.get("sweep", [result]),
)
def _cmd_lossy(args):
    from .qcode import lossy_typical_projection

    ns = _parse_list(args.n, int, "copy-count")
    if not ns:
        raise _UsageError("no copy counts given")
    rho = _density(args.rho)
    rows = [dataclasses.asdict(lossy_typical_projection(rho, n, args.delta)) for n in ns]
    if len(rows) == 1:
        return (rows[0], {"success_le_one": rows[0]["success"] <= 1.0})
    return (
        {"delta": args.delta, "sweep": rows},
        {"all_success_le_one": all(r["success"] <= 1.0 for r in rows)},
    )


@_command(
    "complexity", "description length of a state on one machine",
    _opt("--machine", required=True), _STATE,
)
def _cmd_complexity(args):
    machine = read_machine_file(args.machine)
    state = read_qstring_file(args.state)
    est = machine_complexity(machine, state)
    return (
        {"value": est.value, "decomposition": _decomposition(est)},
        {"weights_sum_to_one": abs(sum(est.decomposition.values()) - 1.0) <= WEIGHT_SUM_TOL},
    )


@_command(
    "universal", "cheapest description over a machine catalog",
    _MACHINES, _IDENTITY, _SD_IDENTITY, _STATE,
)
def _cmd_universal(args):
    _require_machines(args)
    state = read_qstring_file(args.state)
    est = universal_complexity(_build_catalog(args), state)
    return (
        {
            "value": est.value,
            "machine_index": est.machine_index,
            "decomposition": _decomposition(est),
        },
        {},
    )


@_command(
    "kq", "fidelity-penalized description length", _opt("--programs", required=True), _STATE
)
def _cmd_kq(args):
    programs, _ = read_program_table(args.programs)
    state = read_qstring_file(args.state)
    value = fidelity_penalized_complexity(programs, state)
    return ({"value": value}, {})


@_command(
    "incompress", "entropy floor for a family of states",
    _opt("--state", action="append", required=True), _MACHINES, _IDENTITY, _SD_IDENTITY,
)
def _cmd_incompress(args):
    from .experiments import incompressibility_report

    _require_machines(args)
    states = [read_qstring_file(p) for p in args.state]
    result = dataclasses.asdict(incompressibility_report(states, _build_catalog(args)))
    checks = {"bound_respected": result.pop("verified")}
    return (result, checks)


def _multicopy_rows(result: dict) -> list[dict]:
    """One row per symmetric sector i: its weight and both code lengths."""
    columns = zip(result["weights"], result["raw_lengths"], result["normalized_lengths"])
    return [
        {"i": i, "weight": w, "raw_length": raw, "normalized_length": norm}
        for i, (w, raw, norm) in enumerate(columns)
    ]


@_command(
    "multicopy", "weights and code lengths for n copies of a 2-term state",
    _opt("--alpha2", type=float, required=True), _opt("--n", type=int, required=True),
    table=_multicopy_rows,
)
def _cmd_multicopy(args):
    from .experiments import multicopy_report

    rep = multicopy_report(args.alpha2, args.n)
    return (
        dataclasses.asdict(rep),
        {
            "weights_sum_to_one": abs(sum(rep.weights) - 1.0) <= PROB_TOL,
            "raw_kraft_feasible": kraft_feasible(rep.raw_lengths),
            # each normalized length is at most the raw one, summed with
            # the same weights in the same order, so no slack is needed
            "normalized_not_longer": rep.expected_normalized <= rep.expected_raw,
        },
    )


@_command(
    "nonadd", "nonadditivity witnesses over a block of basis strings",
    _opt("--mblock", type=int, required=True), _opt("--k", type=float, default=1.0),
    _SD_IDENTITY,
)
def _cmd_nonadd(args):
    from .experiments import nonadditivity_search

    span = args.sd_identity if args.sd_identity is not None else args.mblock + 1
    cat = MachineCatalog([self_delimit_machine(identity_machine(span))])
    rep = nonadditivity_search(args.mblock, cat, args.k)
    return (
        dataclasses.asdict(rep),
        {
            "concentrated_gap_exceeds_k": rep.success_concentrated,
            "diluted_gap_exceeds_k": rep.success_diluted,
        },
    )


@_command(
    "sandwich", "expected catalog complexity against the entropy",
    _opt("--ensemble", required=True), _MACHINES, _SD_IDENTITY,
)
def _cmd_sandwich(args):
    from .experiments import entropy_sandwich_report
    from .linalg import density_from_ensemble, read_ensemble_file
    from .qcode import sw_lossless_code

    ens = read_ensemble_file(args.ensemble)
    code = sw_lossless_code(density_from_ensemble(ens))  # the report reuses its spectrum
    cat = _build_catalog(args, [machine_from_code(code)])
    result = dataclasses.asdict(entropy_sandwich_report(ens, cat))
    checks = {"lower": result.pop("lower_ok"), "upper": result.pop("upper_ok")}
    return (result, checks)


def _parse_ineq_spec(text: str, n_parties: int) -> InequalitySpec:
    from .experiments import InequalitySpec

    terms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise _UsageError(f"bad inequality term {chunk!r}; use '1,2=-1'")
        subset_text, coeff_text = chunk.split("=", 1)
        try:
            subset = [int(x) for x in subset_text.split(",")]
            coeff = float(coeff_text)
        except ValueError as exc:
            raise _UsageError(f"bad inequality term {chunk!r}: {exc}") from exc
        terms.append((subset, coeff))
    try:
        return InequalitySpec(n_parties, terms)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


@_command(
    "ineq", "linear entropy expression over subsystem marginals",
    _opt("--spec", required=True),
    _opt("--mode", choices=("joint", "product"), default="joint"),
    _opt("--rho"), _opt("--dims"), _opt("--factor", action="append"),
)
def _cmd_ineq(args):
    from .experiments import ROUNDOFF_TOL, inequality_check, product_state

    if args.mode == "joint":
        if args.rho is None or args.dims is None:
            raise _UsageError("joint mode needs --rho and --dims")
        dims = _parse_list(args.dims, int, "dimension")
        spec = _parse_ineq_spec(args.spec, len(dims))
        value = inequality_check(spec, _density(args.rho), dims, mode="joint")
        return ({"value": value, "mode": "joint"}, {})
    if not args.factor:
        raise _UsageError("product mode needs at least one --factor")
    spec = _parse_ineq_spec(args.spec, len(args.factor))
    factors = [_density(p) for p in args.factor]
    value = inequality_check(spec, factors, mode="product")
    joint_value = inequality_check(
        spec, product_state(factors), [f.basis for f in factors], mode="joint"
    )
    return (
        {"value": value, "mode": "product", "joint_value": joint_value},
        {"paths_agree": abs(value - joint_value) <= ROUNDOFF_TOL},
    )


@_command(
    "randrho", "seeded random density operator as an eigen-ensemble",
    _opt("--dim", type=int, required=True), _opt("--out-ens"),
)
def _cmd_randrho(args):
    # numpy's generator takes only non-negative seeds; other commands
    # merely record --seed, so they take any integer.
    if args.seed < 0:
        raise _UsageError(f"randrho needs a non-negative --seed, got {args.seed}")
    from .experiments import random_density
    from .linalg import TRACE_TOL, Ensemble, dump_ensemble, write_ensemble_file
    from .qcode import eigen_ensemble

    rho = random_density(args.dim, args.seed)
    ens = Ensemble(eigen_ensemble(rho))
    if args.out_ens:
        write_ensemble_file(args.out_ens, ens)
    result = _spectrum_fields(rho)
    return (
        {**result, "ensemble_text": dump_ensemble(ens)},
        {"trace_one": abs(sum(result["eigenvalues"]) - 1.0) <= TRACE_TOL},
    )


# --- driver -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfock",
        description="Quantum strings, codes, and complexity reports.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _HANDLERS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--seed", type=int, default=0, help="recorded in the report")
        p.add_argument("--out", default=None, help="write the report to this path")
        formats, help_text = ("json", "text"), "json (default) or text"
        if command.table:
            formats = ("json", "csv", "text")
            help_text = "json (default), text, or csv for sweep tables"
        p.add_argument("--format", choices=formats, default="json", help=help_text)
        for flags, kwargs in command.options:
            p.add_argument(*flags, **kwargs)
    return parser


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        write_text(out_path, text)
    else:
        sys.stdout.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    reads: dict[str, bytes] = {}
    recording = _READS.set(reads)  # fock.read_text records each input here
    try:
        command = _HANDLERS[args.command]
        result, checks = command.handler(args)
        report = _envelope(args.seed, reads, result, checks)
        if args.format == "csv":
            text = _emit_csv(report, command.table(result))
        elif args.format == "text":
            text = _emit_text(report)
        else:
            text = _emit_json(report)
        _write_output(text, args.out)
        return 0
    except _UsageError as exc:
        parser.exit(2, f"{parser.prog}: usage error: {exc}\n")
    except QFockError as exc:
        record = {
            "tool_version": __version__,
            "seed": args.seed,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        _write_output(_emit_json(record), args.out)
        return 4 if isinstance(exc, FormatError) else 1
    except OSError as exc:
        sys.stderr.write(f"{parser.prog}: i/o error: {exc}\n")
        return 3
    finally:
        _READS.reset(recording)


if __name__ == "__main__":
    sys.exit(main())
