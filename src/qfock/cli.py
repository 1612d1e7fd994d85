"""Command line driver.

Every subcommand emits a single report with the same envelope:

    {
      "tool_version": "...",
      "seed": 0,
      "inputs": {"<path>": "sha256:<hex>", ...},
      "result": {...},
      "checks": {...}
    }

Numeric fields are printed with 9 significant digits and keys are
sorted, so a rerun with the same inputs and seed is byte-identical.
JSON is the canonical format; ``--format csv`` is accepted only by the
sweep-shaped subcommands (``lossy`` and ``multicopy``), whose header is
the key order of their table rows, and ``--format text`` renders the
same report as flat ``key = value`` lines.

Exit codes: 0 success, 1 domain error (structured error record),
2 usage error, 3 I/O error, 4 malformed input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import sys
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from . import __version__
from .errors import FormatError, QFockError
from .fock import (
    EPS_TOKEN,
    average_length,
    base_length,
    dump_qstring,
    format_bits,
    is_bitstring,
    pair_decode,
    pair_encode,
    read_qstring_file,
    self_delimit,
    write_qstring_file,
)
from .codes import (
    PrefixCode,
    code_table_text,
    expected_length,
    kraft_sum,
    shannon_code,
    shannon_entropy,
)
from .complexity import (
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
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, str)) or value is None:
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


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _envelope(seed: int, inputs: Sequence[str], result: dict, checks: dict) -> dict:
    return {
        "tool_version": __version__,
        "seed": seed,
        "inputs": {p: _digest(p) for p in inputs},
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
    if token == EPS_TOKEN:
        return ""
    if not is_bitstring(token):
        raise _UsageError(f"bad bitstring argument {token!r} (use '{EPS_TOKEN}' for empty)")
    return token


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


def _build_catalog(
    args, first: Sequence[Describer] = ()
) -> tuple[MachineCatalog, list[str]]:
    """Catalog of ``first``, the --machine files, then --identity/--sd-identity.

    Also returns the machine file paths, for the report's inputs.
    """
    machines = list(first)
    inputs: list[str] = []
    for path in args.machine or []:
        machines.append(read_machine_file(path))
        inputs.append(path)
    if getattr(args, "identity", None) is not None:
        machines.append(identity_machine(args.identity))
    if getattr(args, "sd_identity", None) is not None:
        machines.append(self_delimit_machine(identity_machine(args.sd_identity)))
    if not machines:
        raise _UsageError("no machines given; use --machine, --identity or --sd-identity")
    return MachineCatalog(machines), inputs


# --- subcommand handlers -----------------------------------------------------
# Each returns (result, checks, inputs, csv_rows_or_None).

def _cmd_avglen(args):
    state = read_qstring_file(args.state)
    return (
        {"average_length": average_length(state), "terms": len(state)},
        {},
        [args.state],
        None,
    )


def _cmd_baselen(args):
    state = read_qstring_file(args.state)
    return ({"base_length": base_length(state)}, {}, [args.state], None)


def _cmd_pair(args):
    if args.decode is not None:
        if args.x is not None or args.y is not None:
            raise _UsageError("--decode excludes --x/--y")
        x, y = pair_decode(_parse_bits_arg(args.decode))
        return ({"x": format_bits(x), "y": format_bits(y)}, {}, [], None)
    if args.x is None or args.y is None:
        raise _UsageError("need both --x and --y (or --decode)")
    x = _parse_bits_arg(args.x)
    y = _parse_bits_arg(args.y)
    encoded = pair_encode(x, y)
    return (
        {"encoded": encoded, "length": len(encoded)},
        {"roundtrip": pair_decode(encoded) == (x, y)},
        [],
        None,
    )


def _cmd_selfdelim(args):
    state = read_qstring_file(args.state)
    out = self_delimit(state)
    if args.out_state:
        write_qstring_file(args.out_state, out)
    lin = average_length(state)
    lout = average_length(out)
    return (
        {
            "text": dump_qstring(out),
            "average_length_in": lin,
            "average_length_out": lout,
        },
        {"length_law": abs(lout - (2.0 * lin + 1.0)) <= 1e-9},
        [args.state],
        None,
    )


def _cmd_entropy(args):
    from .linalg import (
        density_from_ensemble,
        eig_hermitian,
        entropy_of_spectrum,
        read_ensemble_file,
    )

    rho = density_from_ensemble(read_ensemble_file(args.rho))
    dec = eig_hermitian(rho)
    eigs = [float(x) for x in dec.eigenvalues]
    return (
        {
            "entropy": entropy_of_spectrum(dec.eigenvalues),
            "dim": rho.dim,
            "eigenvalues": eigs,
        },
        {"psd": min(eigs) >= -1e-9},
        [args.rho],
        None,
    )


def _cmd_shannon(args):
    probs = _parse_list(args.p, float, "probability")
    return ({"entropy": shannon_entropy(probs)}, {}, [], None)


def _cmd_code(args):
    probs = _parse_list(args.p, float, "probability")
    code = shannon_code(probs)
    h = shannon_entropy(probs)
    e = expected_length(code, probs)
    return (
        {**_code_fields(code), "expected_length": e, "entropy": h},
        {
            "kraft_feasible": kraft_sum(len(w) for w in code.table.values()) <= 1.0,
            "sandwich": h - 1e-9 <= e < h + 1.0,
        },
        [],
        None,
    )


def _cmd_kraft(args):
    lengths = _parse_list(args.lengths, int, "length")
    total = kraft_sum(lengths)
    return (
        {"kraft_sum": total, "count": len(lengths)},
        {"feasible": total <= 1.0},
        [],
        None,
    )


def _cmd_sw(args):
    from .linalg import density_from_ensemble, read_ensemble_file
    from .qcode import sw_report

    rho = density_from_ensemble(read_ensemble_file(args.rho))
    code, report = sw_report(rho)
    return (
        {**_code_fields(code.words), **dataclasses.asdict(report)},
        {
            "kraft_feasible": report.kraft <= 1.0,
            "sandwich": report.entropy - 1e-9
            <= report.expected_avg_length
            <= report.entropy + 1.0,
        },
        [args.rho],
        None,
    )


def _cmd_encode(args):
    from .linalg import density_from_ensemble, read_ensemble_file
    from .qcode import encode_qstring, sw_lossless_code

    rho = density_from_ensemble(read_ensemble_file(args.rho))
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
        [args.rho, args.state],
        None,
    )


def _cmd_lossy(args):
    from .linalg import density_from_ensemble, eig_hermitian, read_ensemble_file
    from .qcode import lossy_typical_projection

    rho = density_from_ensemble(read_ensemble_file(args.rho))
    ns = _parse_list(args.n, int, "copy-count")
    if not ns:
        raise _UsageError("no copy counts given")
    dec = eig_hermitian(rho)
    rows = []
    for n in ns:
        rep = lossy_typical_projection(rho, n, args.delta, dec)
        rows.append(dataclasses.asdict(rep))
    if len(rows) == 1:
        return (rows[0], {"success_le_one": rows[0]["success"] <= 1.0}, [args.rho], rows)
    return (
        {"delta": args.delta, "sweep": rows},
        {"all_success_le_one": all(r["success"] <= 1.0 for r in rows)},
        [args.rho],
        rows,
    )


def _cmd_complexity(args):
    machine = read_machine_file(args.machine)
    state = read_qstring_file(args.state)
    est = machine_complexity(machine, state)
    return (
        {
            "value": est.value,
            "decomposition": _decomposition(est),
        },
        {"weights_sum_to_one": abs(sum(est.decomposition.values()) - 1.0) <= 1e-6},
        [args.machine, args.state],
        None,
    )


def _cmd_universal(args):
    state = read_qstring_file(args.state)
    cat, inputs = _build_catalog(args)
    est = universal_complexity(cat, state)
    return (
        {
            "value": est.value,
            "machine_index": est.machine_index,
            "decomposition": _decomposition(est),
        },
        {},
        inputs + [args.state],
        None,
    )


def _cmd_kq(args):
    programs, _ = read_program_table(args.programs)
    state = read_qstring_file(args.state)
    value = fidelity_penalized_complexity(programs, state)
    return ({"value": value}, {}, [args.programs, args.state], None)


def _cmd_incompress(args):
    from .experiments import incompressibility_report

    states = [read_qstring_file(p) for p in args.state]
    cat, inputs = _build_catalog(args)
    result = dataclasses.asdict(incompressibility_report(states, cat))
    checks = {"bound_respected": result.pop("verified")}
    return (result, checks, inputs + list(args.state), None)


def _cmd_multicopy(args):
    from .experiments import multicopy_report

    rep = multicopy_report(args.alpha2, args.n)
    rows = [
        {
            "i": i,
            "weight": rep.weights[i],
            "raw_length": rep.raw_lengths[i],
            "normalized_length": rep.normalized_lengths[i],
        }
        for i in range(rep.n + 1)
    ]
    return (
        dataclasses.asdict(rep),
        {
            "weights_sum_to_one": abs(sum(rep.weights) - 1.0) <= 1e-9,
            "raw_kraft_feasible": kraft_sum(rep.raw_lengths) <= 1.0 + 1e-12,
            "normalized_not_longer": rep.expected_normalized <= rep.expected_raw + 1e-12,
        },
        [],
        rows,
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
        [],
        None,
    )


def _cmd_sandwich(args):
    from .experiments import entropy_sandwich_report
    from .linalg import density_from_ensemble, eig_hermitian, read_ensemble_file
    from .qcode import sw_lossless_code

    ens = read_ensemble_file(args.ensemble)
    rho = density_from_ensemble(ens)
    dec = eig_hermitian(rho)
    cat, inputs = _build_catalog(args, [machine_from_code(sw_lossless_code(rho, dec))])
    result = dataclasses.asdict(entropy_sandwich_report(ens, cat, dec))
    checks = {"lower": result.pop("lower_ok"), "upper": result.pop("upper_ok")}
    return (result, checks, [args.ensemble] + inputs, None)


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


def _cmd_ineq(args):
    from .experiments import inequality_check, product_state
    from .linalg import density_from_ensemble, read_ensemble_file

    if args.mode == "joint":
        if args.rho is None or args.dims is None:
            raise _UsageError("joint mode needs --rho and --dims")
        dims = _parse_list(args.dims, int, "dimension")
        spec = _parse_ineq_spec(args.spec, len(dims))
        rho = density_from_ensemble(read_ensemble_file(args.rho))
        value = inequality_check(spec, rho, dims, mode="joint")
        return ({"value": value, "mode": "joint"}, {}, [args.rho], None)
    if not args.factor:
        raise _UsageError("product mode needs at least one --factor")
    factors = [density_from_ensemble(read_ensemble_file(p)) for p in args.factor]
    spec = _parse_ineq_spec(args.spec, len(factors))
    value = inequality_check(spec, factors, mode="product")
    dims = [f.dim for f in factors]
    joint_value = inequality_check(
        spec, product_state(factors), dims, mode="joint"
    )
    return (
        {"value": value, "mode": "product", "joint_value": joint_value},
        {"paths_agree": abs(value - joint_value) <= 1e-9},
        list(args.factor),
        None,
    )


def _cmd_randrho(args):
    from .experiments import random_density
    from .linalg import (
        Ensemble,
        dump_ensemble,
        eig_hermitian,
        entropy_of_spectrum,
        write_ensemble_file,
    )
    from .qcode import eigen_ensemble

    rho = random_density(args.dim, args.seed)
    dec = eig_hermitian(rho)
    ens = Ensemble(eigen_ensemble(rho, dec))
    if args.out_ens:
        write_ensemble_file(args.out_ens, ens)
    return (
        {
            "dim": rho.dim,
            "entropy": entropy_of_spectrum(dec.eigenvalues),
            "eigenvalues": [float(x) for x in dec.eigenvalues],
            "ensemble_text": dump_ensemble(ens),
        },
        {"trace_one": abs(sum(float(x) for x in dec.eigenvalues) - 1.0) <= 1e-9},
        [],
        None,
    )


# --- driver -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfock",
        description="Quantum strings, codes, and complexity reports.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0, help="recorded in the report")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="json",
            help="json (default), text, or csv for sweep tables",
        )
        return p

    p = add("avglen", "average length of a state")
    p.add_argument("--state", required=True)
    p = add("baselen", "base (maximum) length of a state")
    p.add_argument("--state", required=True)
    p = add("pair", "self-delimiting pair encoding")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--decode")
    p = add("selfdelim", "apply the self-delimiting transform to a state")
    p.add_argument("--state", required=True)
    p.add_argument("--out-state", default=None)
    p = add("entropy", "von Neumann entropy of an ensemble's density operator")
    p.add_argument("--rho", required=True)
    p = add("shannon", "Shannon entropy of a probability vector")
    p.add_argument("--p", required=True)
    p = add("code", "canonical code with lengths ceil(-log2 p)")
    p.add_argument("--p", required=True)
    p = add("kraft", "Kraft sum of codeword lengths")
    p.add_argument("--lengths", required=True)
    p = add("sw", "lossless code of a density operator")
    p.add_argument("--rho", required=True)
    p = add("encode", "encode a state with the lossless code of rho")
    p.add_argument("--rho", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--out-state", default=None)
    p = add("lossy", "typical-subspace projection of n encoded copies")
    p.add_argument("--rho", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--delta", type=float, required=True)
    p = add("complexity", "description length of a state on one machine")
    p.add_argument("--machine", required=True)
    p.add_argument("--state", required=True)
    p = add("universal", "cheapest description over a machine catalog")
    p.add_argument("--machine", action="append")
    p.add_argument("--identity", type=int, default=None)
    p.add_argument("--sd-identity", type=int, default=None)
    p.add_argument("--state", required=True)
    p = add("kq", "fidelity-penalized description length")
    p.add_argument("--programs", required=True)
    p.add_argument("--state", required=True)
    p = add("incompress", "entropy floor for a family of states")
    p.add_argument("--state", action="append", required=True)
    p.add_argument("--machine", action="append")
    p.add_argument("--identity", type=int, default=None)
    p.add_argument("--sd-identity", type=int, default=None)
    p = add("multicopy", "weights and code lengths for n copies of a 2-term state")
    p.add_argument("--alpha2", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p = add("nonadd", "nonadditivity witnesses over a block of basis strings")
    p.add_argument("--mblock", type=int, required=True)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--sd-identity", type=int, default=None)
    p = add("sandwich", "expected catalog complexity against the entropy")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--machine", action="append")
    p.add_argument("--sd-identity", type=int, default=None)
    p = add("ineq", "linear entropy expression over subsystem marginals")
    p.add_argument("--spec", required=True)
    p.add_argument("--mode", choices=("joint", "product"), default="joint")
    p.add_argument("--rho")
    p.add_argument("--dims")
    p.add_argument("--factor", action="append")
    p = add("randrho", "seeded random density operator as an eigen-ensemble")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out-ens", default=None)
    return parser


_HANDLERS = {
    "avglen": _cmd_avglen,
    "baselen": _cmd_baselen,
    "pair": _cmd_pair,
    "selfdelim": _cmd_selfdelim,
    "entropy": _cmd_entropy,
    "shannon": _cmd_shannon,
    "code": _cmd_code,
    "kraft": _cmd_kraft,
    "sw": _cmd_sw,
    "encode": _cmd_encode,
    "lossy": _cmd_lossy,
    "complexity": _cmd_complexity,
    "universal": _cmd_universal,
    "kq": _cmd_kq,
    "incompress": _cmd_incompress,
    "multicopy": _cmd_multicopy,
    "nonadd": _cmd_nonadd,
    "sandwich": _cmd_sandwich,
    "ineq": _cmd_ineq,
    "randrho": _cmd_randrho,
}


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, checks, inputs, rows = _HANDLERS[args.command](args)
        report = _envelope(args.seed, inputs, result, checks)
        if args.format == "csv":
            if rows is None:
                raise _UsageError(f"{args.command} has no csv table")
            text = _emit_csv(report, rows)
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


if __name__ == "__main__":
    sys.exit(main())
