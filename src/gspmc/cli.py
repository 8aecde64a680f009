"""Command-line front end.

Commands: ``validate``, ``desugar``, ``certify``, ``cutoff``, ``mc``,
``verify``, ``sweep``. Every command reads one model file; analysis
commands take the target state and count from ``--target``/``--count``
(falling back to the file's ``property`` block). Exit codes: 0 when the
property was refuted or the analysis passed, 1 when a witness or
violation was found, 2 on any parse, validation or resource error.
A reader that closes stdout early does not change the exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from gspmc import cutoff, explicit, model, modelfile, wellbehaved, wsts

EXIT_CLEAN = 0
EXIT_WITNESS = 1
EXIT_ERROR = 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: it is the same for every call."""
    parser = argparse.ArgumentParser(
        prog="gspmc",
        description="Model checker for globally synchronizing protocols.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, *, query=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="protocol model file (JSON)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
        if query:
            p.add_argument("--target", help="target state name")
            p.add_argument("--count", type=int,
                           help="required number of processes in the target")
        return p

    cmd("validate", "check the model file and report its shape")
    cmd("desugar", "expand sugar and emit an equivalent core-only model")
    cmd("certify", "run the guard-compatibility certification")

    p = cmd("cutoff", "look for a cutoff lemma and decide at the cutoff", query=True)
    p.add_argument("--state-budget", type=int, default=explicit.DEFAULT_STATE_BUDGET)
    p.add_argument("--path-budget", type=int, default=cutoff.DEFAULT_PATH_BUDGET)

    p = cmd("mc", "explicit check with a fixed number of processes", query=True)
    p.add_argument("--n", type=int, required=True, help="number of processes")
    p.add_argument("--state-budget", type=int, default=explicit.DEFAULT_STATE_BUDGET)

    cmd("verify", "parameterized check over all system sizes", query=True)

    p = cmd("sweep", "find the minimal system size reaching the target", query=True)
    p.add_argument("--max", type=int, required=True, dest="max_n",
                   help="largest system size to try")
    p.add_argument("--state-budget", type=int, default=explicit.DEFAULT_STATE_BUDGET)
    return parser


def _resolve_query(protocol, mf, args):
    target, count = args.target, args.count
    prop = mf.property_block or {}
    if target is None:
        target = prop.get("target")
    if count is None:
        count = prop.get("count")
    if target is None or count is None:
        raise model.ValidationError(
            "no target/count given (use --target/--count or a property block)")
    return protocol.state_index(target), count


def _vec(protocol, q):
    inside = ", ".join(f"{protocol.state_names[s]}:{c}"
                       for s, c in enumerate(q) if c)
    return "{" + inside + "}"


def _trace_payload(trace):
    return [{"action": action, "config": list(q)} for action, q in trace]


def _trace_lines(protocol, trace):
    lines = []
    for action, q in trace:
        prefix = "  start " if action is None else f"  --{action}--> "
        lines.append(prefix + _vec(protocol, q))
    return lines


def _certify_payload(report: wellbehaved.GuardCompatReport) -> dict:
    return {
        "well_behaved": report.well_behaved,
        "actions": [
            {
                "action": st.action,
                "status": st.status,
                "condition": st.condition,
                "violations": [
                    {"condition": v.condition, "guard": v.guard,
                     "transition": list(v.transition), "detail": v.detail}
                    for v in st.violations
                ],
                "notes": list(st.notes),
            }
            for st in report.actions
        ],
        "notes": list(report.notes),
    }


def _run_command(args, mf, protocol) -> tuple[int, dict, list[str]]:
    """Execute one command; returns (exit code, result payload, text lines)."""
    if args.command == "validate":
        payload = {
            "valid": True,
            "states": list(protocol.state_names),
            "init": protocol.state_names[protocol.init],
            "actions": [a.name for a in protocol.actions],
            "guards": [g.name for g in protocol.guards[1:]],
        }
        return EXIT_CLEAN, payload, ["model is valid",
                                     f"actions: {', '.join(payload['actions'])}"]

    if args.command == "desugar":
        doc = modelfile.core_document(protocol, mf.property_block)
        return EXIT_CLEAN, {"model": doc}, [modelfile.render(doc).rstrip("\n")]

    if args.command == "certify":
        report = wellbehaved.certify(protocol)
        lines = [f"well-behaved: {report.well_behaved}"]
        for st in report.actions:
            if st.status == "violation":
                head = f"  {st.action}: VIOLATION"
                for v in st.violations:
                    lines.append(f"{head} {v.condition} on {v.guard} "
                                 f"({v.transition[0]} -> {v.transition[1]}): {v.detail}")
            else:
                lines.append(f"  {st.action}: {st.status} ({st.condition})")
        for note in report.notes:
            lines.append(f"  note: {note}")
        code = EXIT_CLEAN if report.well_behaved else EXIT_WITNESS
        return code, _certify_payload(report), lines

    if args.command == "mc":
        target, count = _resolve_query(protocol, mf, args)
        query = explicit.ReachQuery(target, count, args.n)
        res = explicit.check_fixed(protocol, query, state_budget=args.state_budget)
        payload = {
            "n": args.n,
            "target": protocol.state_names[target],
            "count": count,
            "reachable": res.reachable,
            "explored": res.explored,
            "trace": _trace_payload(res.trace) if res.trace else None,
        }
        if res.reachable:
            lines = [f"reachable with {args.n} processes "
                     f"({len(res.trace) - 1} steps):"]
            lines += _trace_lines(protocol, res.trace)
            return EXIT_WITNESS, payload, lines
        return EXIT_CLEAN, payload, [
            f"not reachable with {args.n} processes "
            f"({res.explored} configurations explored)"]

    if args.command == "sweep":
        target, count = _resolve_query(protocol, mf, args)
        res = explicit.min_witness_size(protocol, target, count, args.max_n,
                                        state_budget=args.state_budget)
        payload = {
            "target": protocol.state_names[target],
            "count": count,
            "found": res.found,
            "min_n": res.n,
            "searched_up_to": res.searched_up_to,
            "trace": _trace_payload(res.trace) if res.trace else None,
        }
        if res.found:
            lines = [f"minimal system size: {res.n} "
                     f"({len(res.trace) - 1} steps):"]
            lines += _trace_lines(protocol, res.trace)
            return EXIT_WITNESS, payload, lines
        return EXIT_CLEAN, payload, [
            f"not reachable for any n <= {res.searched_up_to}"]

    if args.command == "verify":
        target, count = _resolve_query(protocol, mf, args)
        verdict = wsts.decide(protocol, target, count)
        order = "component-wise" if verdict.basis.wqo.guards is None \
            else "guard-refined"
        payload = {
            "target": protocol.state_names[target],
            "count": count,
            "order": order,
            "reachable": verdict.reachable,
            "min_n": verdict.min_n,
            "witness": None if verdict.witness is None else list(verdict.witness),
            "iterations": verdict.iterations,
            "basis": [list(b) for b in verdict.basis.basis],
        }
        lines = [f"order: {order}"]
        if verdict.reachable:
            lines.append(f"Reachable: minimal system size {verdict.min_n}")
            lines.append("  witness actions: "
                         + (", ".join(verdict.witness) or "(none)"))
            return EXIT_WITNESS, payload, lines
        lines.append(f"Unreachable for every system size "
                     f"(fixpoint basis of {len(verdict.basis.basis)} elements, "
                     f"{verdict.iterations} iteration(s))")
        return EXIT_CLEAN, payload, lines

    if args.command == "cutoff":
        target, count = _resolve_query(protocol, mf, args)
        verdict = cutoff.certified_cutoff_check(
            protocol, target, count,
            state_budget=args.state_budget, path_budget=args.path_budget)
        payload = {
            "target": protocol.state_names[target],
            "count": count,
            "amenable": verdict.amenable,
            "lemma": verdict.lemma,
            "cutoff": verdict.cutoff,
            "holds": verdict.holds,
            "witness": verdict.witness,
            "trace": (_trace_payload(verdict.result.trace)
                      if verdict.result and verdict.result.trace else None),
        }
        if not verdict.amenable:
            return EXIT_CLEAN, payload, [f"NotAmenable: {verdict.witness}"]
        lines = [f"lemma {verdict.lemma} applies: cutoff {verdict.cutoff}"]
        if verdict.holds:
            lines.append(f"reachable at the cutoff, so for every "
                         f"n >= {verdict.cutoff}")
            lines += _trace_lines(protocol, verdict.result.trace)
            return EXIT_WITNESS, payload, lines
        lines.append(f"not reachable at the cutoff, so for no n >= {verdict.cutoff}")
        return EXIT_CLEAN, payload, lines

    raise AssertionError(f"unhandled command {args.command!r}")


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        mf = modelfile.parse_model(args.model)
        protocol = model.validate(mf.raw)
        code, payload, lines = _run_command(args, mf, protocol)
    except (modelfile.ParseError, modelfile.IoError, model.ValidationError,
            wsts.NotCertifiedWellBehaved,
            explicit.StateBudgetExceeded, cutoff.PathBudgetExceeded,
            ValueError) as e:
        module = type(e).__module__.rsplit(".", 1)[-1]
        print(f"error [{module}]: {e}", file=sys.stderr)
        return EXIT_ERROR

    if args.json:
        report = {
            "command": args.command,
            "model": args.model,
            "digest": {"states": protocol.n_states,
                       "actions": len(protocol.actions),
                       "guards": len(protocol.guards) - 1},
            "result": payload,
            "duration_s": round(time.monotonic() - started, 6),
        }
        lines = [json.dumps(report, indent=2, ensure_ascii=False)]
    try:
        for line in lines:
            out.write(line + "\n")
    except BrokenPipeError:
        pass  # the reader is gone; the verdict and its exit code stand
    return code


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # keep the interpreter's own flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
