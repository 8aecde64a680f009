from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

from gspmc import model, modelfile, semantics

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "gspmc" / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def load_fixture(name: str) -> model.Protocol:
    return model.validate(modelfile.parse_model(FIXTURES / name).raw)


def perfbench_protocols():
    """The benchmark's protocol generators, ``perfbench/protocols.py``,
    loaded from its file: the tests draw the benchmark's own corpus."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_protocols", ROOT / "perfbench" / "protocols.py")
    protocols = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(protocols)
    return protocols


def perfbench_constant(name):
    """The literal assigned to ``name`` in ``perfbench/workloads.py``,
    read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    (value,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]]
    return ast.literal_eval(value)


def perfbench_ring_queries():
    """``BACKWARD_RING`` of ``perfbench/workloads.py``, the benchmark's
    (k, m, clocks, count) ring-family verify queries."""
    return perfbench_constant("BACKWARD_RING")


def config(protocol: model.Protocol, **counts) -> tuple[int, ...]:
    """Counter vector from state names, e.g. config(p, Env=2, Ask=1)."""
    q = [0] * protocol.n_states
    for name, c in counts.items():
        q[protocol.state_index(name)] = c
    return tuple(q)


def named_successors(protocol: model.Protocol, q) -> list:
    """``(action name, successor)`` per outcome of firing from the counter
    vector q: ``semantics.fire`` of each action in turn, which together
    are exactly what ``semantics.successors`` gives for ``sum(q)``
    processes, unpacked."""
    out = [(a.name, s) for a in protocol.actions for s in semantics.fire(q, a)]
    packed = semantics.packed(protocol, sum(q))
    assert [s for _, s in out] == [
        semantics.unpack(packed, succ) for succ
        in semantics.successors(packed, semantics.pack(packed, q))]
    return out


def internal_ring(length: int) -> model.Protocol:
    """``length`` states in a cycle of internal steps plus an isolated
    state ``dead``: every distribution of n processes over the ring is
    reachable, C(n + length - 1, length - 1) configurations."""
    ring = [f"r{j}" for j in range(length)]
    return model.validate({
        "states": [*ring, "dead"], "init": "r0",
        "sugar": [{"type": "internal", "name": f"t{j}", "from": ring[j],
                   "to": ring[(j + 1) % length]} for j in range(length)]})


def chain_raw(length: int) -> dict:
    """Internal steps S0 -> S1 -> ... along ``length`` states, plus a
    2-sender action out of S0, so that L1 and L2 fail and L3 walks the
    whole chain: a path deeper than the interpreter's recursion limit."""
    states = [f"S{i}" for i in range(length)]
    actions = [{"name": f"t{i}", "kind": "sender", "sends": [[a, b]]}
               for i, (a, b) in enumerate(zip(states, states[1:]))]
    actions.append({"name": "pair", "kind": "sender",
                    "sends": [["S0", "S1"], ["S0", "S1"]]})
    return {"states": states, "init": "S0", "guards": {}, "actions": actions}


def chain(n: int) -> model.Protocol:
    """States S0..S(n-1) joined by internal steps t_i from S_i to
    S_(i+1), plus a sender ``b`` under the guard G = S0..S(n//2) that
    sends S0 to S(n-1) and receives S1 into S0. Two processes reach
    S(n-1); the guard-refined engine ranges over surplus supports of
    up to n//2 + 1 states for a basis of a few dozen elements."""
    states = [f"S{i}" for i in range(n)]
    actions = [{"name": f"t{i}", "kind": "sender",
                "sends": [[states[i], states[i + 1]]]} for i in range(n - 1)]
    actions.append({"name": "b", "kind": "sender", "guard": "G",
                    "sends": [["S0", states[-1]]], "receives": [["S1", "S0"]]})
    return model.validate({"states": states, "init": "S0",
                           "guards": {"G": states[:n // 2 + 1]},
                           "actions": actions})


@pytest.fixture(scope="session")
def smoke() -> model.Protocol:
    return load_fixture("smoke_detector.json")


@pytest.fixture(scope="session")
def smoke_2sender() -> model.Protocol:
    return load_fixture("smoke_detector_2sender.json")


@pytest.fixture(scope="session")
def smoke_mutant() -> model.Protocol:
    return load_fixture("smoke_detector_mutant.json")


@pytest.fixture(scope="session")
def witness() -> model.Protocol:
    return load_fixture("cutoff_witness.json")
