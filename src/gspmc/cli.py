"""Command-line front end.

Commands: ``validate``, ``desugar``, ``certify``, ``cutoff``, ``mc``,
``verify``, ``sweep``. Every command reads one model file; analysis
commands take the target state and count from ``--target``/``--count``
(falling back to the file's ``property`` block). Each command builds one
result: ``--json`` prints it inside a one-line JSON report, and the text
report shows that same result. The exit code is read off it: 1 when a
witness or violation was found (``reachable``, ``found`` or ``holds``
true, or ``well_behaved`` false), else 0, and 2 on any usage, parse,
validation or resource error, which is reported as one line on stderr.
A reader that closes stdout early does not change the exit code.

A well-formed line (the command, the model file, then ``--json`` flags
and ``--option value`` pairs, with exact option names) is read straight
from a table taken from the argparse parsers. Every other line, help and
every usage error go through argparse itself.
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

# a report holds no cycle, so the encoder need not track the containers
_REPORT_JSON = json.JSONEncoder(ensure_ascii=False, check_circular=False)


class UsageError(Exception):
    """The command line does not parse."""

    __module__ = "gspmc.cli"  # also under ``python -m gspmc.cli``


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: it is the same for every call.
    Its ``commands`` map each command name to that command's parser."""
    parser = _Parser(
        prog="gspmc",
        description="Model checker for globally synchronizing protocols.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, *, query=False, budget=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model", help="protocol model file (JSON)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable report on stdout")
        if query:
            p.add_argument("--target", help="target state name")
            p.add_argument("--count", type=int,
                           help="required number of processes in the target")
        if budget:
            p.add_argument("--state-budget", type=int,
                           default=explicit.DEFAULT_STATE_BUDGET)
        return p

    cmd("validate", "check the model file and report its shape")
    cmd("desugar", "expand sugar and emit an equivalent core-only model")
    cmd("certify", "run the guard-compatibility certification")
    cmd("cutoff", "look for a cutoff lemma and decide at the cutoff", query=True,
        budget=True).add_argument("--path-budget", type=int,
                                  default=cutoff.DEFAULT_PATH_BUDGET)
    cmd("mc", "explicit check with a fixed number of processes", query=True,
        budget=True).add_argument("--n", type=int, required=True,
                                  help="number of processes")
    cmd("verify", "parameterized check over all system sizes", query=True)
    cmd("sweep", "find the minimal system size reaching the target", query=True,
        budget=True).add_argument("--max", type=int, required=True, dest="max_n",
                                  help="largest system size to try")
    parser.commands = sub.choices
    for p in sub.choices.values():
        p.grammar = _grammar(p)
    return parser


def _grammar(p):
    """``p``'s dests with their defaults, its option strings each with
    its dest and converter (the constant ``True`` for a flag), and its
    required dests, read off its argparse actions. Help stores nothing,
    so it is left out, and ``-h``/``--help`` go to argparse."""
    defaults, options = {}, {}
    for a in p._actions:
        if a.default is argparse.SUPPRESS:
            continue
        defaults[a.dest] = a.default
        for opt in a.option_strings:
            options[opt] = a.dest, (a.type or str) if a.nargs is None else a.const
    return defaults, options, [a.dest for a in p._actions if a.required]


def _parse_direct(grammar, argv):
    """``argv`` read as ``command MODEL`` then flags and ``OPT VALUE``
    pairs, where MODEL and no VALUE starts with ``-``, every OPT is exact
    and the last of a repeated one wins, as argparse reads it. None for
    any other line, a value its converter rejects, or a required option
    left out: argparse then gives the help, the error or the reading."""
    defaults, options, required = grammar
    if len(argv) < 2 or argv[1].startswith("-"):
        return None
    values = dict(defaults, command=argv[0], model=argv[1])
    i = 2
    while i < len(argv):
        entry = options.get(argv[i])
        if entry is None:
            return None
        dest, convert = entry
        if convert is True:
            values[dest] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        try:
            values[dest] = convert(argv[i + 1])
        except ValueError:
            return None
        i += 2
    if any(values[dest] is None for dest in required):
        return None
    return argparse.Namespace(**values)


def _parse_args(argv) -> argparse.Namespace:
    """A known command's well-formed line is read directly; any other
    goes to that command's own parser. The top-level parser reports a
    missing or unknown command and prints the top-level help."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = _parse_direct(command.grammar, argv)
    if args is None:
        args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return args


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


def _trace_payload(trace):
    return trace and [{"action": action, "config": list(q)} for action, q in trace]


def _state_names(protocol, mask) -> list:
    """The sorted names of the states in the bitmask, one per set bit."""
    names = []
    while mask:
        names.append(protocol.state_names[(mask & -mask).bit_length() - 1])
        mask &= mask - 1
    return sorted(names)


def _result(args, mf, protocol) -> dict:
    """The command's result, exactly as ``--json`` reports it."""
    if args.command == "validate":
        return {"valid": True, "states": list(protocol.state_names),
                "init": protocol.state_names[protocol.init],
                "actions": [a.name for a in protocol.actions],
                "guards": [g.name for g in protocol.guards[1:]]}

    if args.command == "desugar":
        return {"model": modelfile.core_document(protocol, mf.property_block)}

    if args.command == "certify":
        report = wellbehaved.certify(protocol)
        return {"well_behaved": report.well_behaved, "actions": [
            {"action": st.action, "status": st.status, "condition": st.condition,
             "violations": [{"condition": v.condition, "guard": v.guard,
                             "transition": list(v.transition), "detail": v.detail}
                            for v in st.violations],
             "notes": list(st.notes)} for st in report.actions],
            "notes": list(report.notes)}

    target, count = _resolve_query(protocol, mf, args)
    query = {"target": protocol.state_names[target], "count": count}

    if args.command == "mc":
        res = explicit.check_fixed(protocol, explicit.ReachQuery(target, count, args.n),
                                   state_budget=args.state_budget)
        return {"n": args.n, **query, "reachable": res.reachable,
                "explored": res.explored, "trace": _trace_payload(res.trace)}

    if args.command == "sweep":
        res = explicit.min_witness_size(protocol, target, count, args.max_n,
                                        state_budget=args.state_budget)
        return {**query, "found": res.found, "min_n": res.n,
                "searched_up_to": res.searched_up_to,
                "trace": _trace_payload(res.trace)}

    if args.command == "verify":
        verdict = wsts.decide(protocol, target, count)
        return {
            **query,
            "order": "guard-refined" if verdict.basis.wqo.guards else "component-wise",
            "reachable": verdict.reachable,
            "min_n": verdict.min_n,
            "witness": None if verdict.witness is None else list(verdict.witness),
            "iterations": verdict.iterations,
            "basis": [list(b) for b in verdict.basis.basis],
            "supports": sorted(_state_names(protocol, m) for m in verdict.supports),
        }

    if args.command == "cutoff":
        verdict = cutoff.certified_cutoff_check(
            protocol, target, count,
            state_budget=args.state_budget, path_budget=args.path_budget)
        return {**query, "amenable": verdict.amenable, "lemma": verdict.lemma,
                "cutoff": verdict.cutoff, "holds": verdict.holds,
                "witness": verdict.witness,
                "trace": _trace_payload(verdict.result and verdict.result.trace)}

    raise AssertionError(f"unhandled command {args.command!r}")


def _exit_code(result) -> int:
    """1 when the result holds a witness or a violation, else 0."""
    found = any(result.get(key) for key in ("reachable", "found", "holds"))
    return EXIT_WITNESS if found or result.get("well_behaved") is False else EXIT_CLEAN


def _text(command, r, state_names) -> list[str]:
    """The text report of ``command``, read off its result ``r`` alone."""
    if command == "validate":
        return ["model is valid", f"actions: {', '.join(r['actions'])}"]
    if command == "desugar":
        return [modelfile.render(r["model"]).rstrip("\n")]
    if command == "certify":
        lines = [f"well-behaved: {r['well_behaved']}"]
        for st in r["actions"]:
            if st["status"] == "violation":
                lines += [f"  {st['action']}: VIOLATION {v['condition']} on {v['guard']} "
                          f"({' -> '.join(v['transition'])}): {v['detail']}"
                          for v in st["violations"]]
            else:
                lines.append(f"  {st['action']}: {st['status']} ({st['condition']})")
        return lines + [f"  note: {note}" for note in r["notes"]]
    if command == "verify":
        if not r["reachable"]:
            return [f"order: {r['order']}",
                    f"Unreachable for every system size (fixpoint basis of "
                    f"{len(r['basis'])} elements, {r['iterations']} iteration(s))"]
        return [f"order: {r['order']}",
                f"Reachable: minimal system size {r['min_n']}",
                "  witness actions: " + (", ".join(r["witness"]) or "(none)")]
    if command == "mc":
        if not r["reachable"]:
            return [f"not reachable with {r['n']} processes "
                    f"({r['explored']} configurations explored)"]
        lines = [f"reachable with {r['n']} processes ({len(r['trace']) - 1} steps):"]
    elif command == "sweep":
        if not r["found"]:
            return [f"not reachable for any n <= {r['searched_up_to']}"]
        lines = [f"minimal system size: {r['min_n']} ({len(r['trace']) - 1} steps):"]
    else:  # cutoff
        if not r["amenable"]:
            return [f"NotAmenable: {r['witness']}"]
        lines = [f"lemma {r['lemma']} applies: cutoff {r['cutoff']}"]
        if not r["holds"]:
            return lines + [f"not reachable at the cutoff, so for no n >= {r['cutoff']}"]
        lines.append(f"reachable at the cutoff, so for every n >= {r['cutoff']}")
    return lines + [
        ("  start {" if step["action"] is None else f"  --{step['action']}--> {{")
        + ", ".join(f"{state_names[s]}:{c}" for s, c in enumerate(step["config"]) if c)
        + "}" for step in r["trace"]]


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parse_args(argv)
        started = time.monotonic()
        mf = modelfile.parse_model(args.model)
        protocol = model.validate(mf.raw)
        result = _result(args, mf, protocol)
    except (modelfile.ParseError, modelfile.IoError, model.ValidationError,
            wsts.NotCertifiedWellBehaved, UsageError,
            explicit.StateBudgetExceeded, cutoff.PathBudgetExceeded,
            ValueError) as e:
        module = type(e).__module__.rsplit(".", 1)[-1]
        print(f"error [{module}]: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (OverflowError, MemoryError) as e:  # such as from a huge --count
        print(f"error [resource]: query too large: {str(e) or type(e).__name__}",
              file=sys.stderr)
        return EXIT_ERROR

    # the report is written in one call: one that stdout cannot encode
    # fails before any of it is written
    if args.json:
        report = _REPORT_JSON.encode({
            "command": args.command,
            "model": args.model,
            "digest": {"states": protocol.n_states,
                       "actions": len(protocol.actions),
                       "guards": len(protocol.guards) - 1},
            "result": result,
            "duration_s": round(time.monotonic() - started, 6),
        })
    else:
        report = "\n".join(_text(args.command, result, protocol.state_names))
    try:
        out.write(report + "\n")
    except BrokenPipeError:
        pass  # the reader is gone; the verdict and its exit code stand
    except UnicodeEncodeError as e:
        print(f"error [cli]: cannot write the report to stdout: {e}",
              file=sys.stderr)
        return EXIT_ERROR
    return _exit_code(result)


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
