import os
import shutil
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import cluster_consensus
from cluster_consensus import ScenarioSpec, build_clustered_network, engine


@pytest.fixture(scope="session")
def tiny_spec():
    """Three clusters of four nodes each: fast to run, rich enough to break."""
    return ScenarioSpec(
        family="ring",
        cluster_sizes=(4, 4, 4),
        gamma=0.5,
        beta=0.1,
        tau=3,
        seed=7,
        max_iters=400,
    )


@pytest.fixture(scope="session")
def tiny_network(tiny_spec):
    return build_clustered_network(tiny_spec)


class CliLauncher(NamedTuple):
    command: list     # argv prefix that starts the command-line tool
    env: dict         # environment for the child process


@pytest.fixture(scope="session")
def cli():
    """Start the command-line tool in a separate process.

    Uses the installed ``cluster-consensus`` script when it is on ``PATH``
    and ``python -m cluster_consensus`` otherwise.  ``PYTHONPATH`` is led by
    the directory that holds the imported package, so the child runs the
    same copy of the code as the tests, whatever the working directory.
    """
    script = shutil.which("cluster-consensus")
    command = [script] if script else [sys.executable, "-m", "cluster_consensus"]
    package_root = str(Path(cluster_consensus.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    return CliLauncher(command, env)


class _Swept(Exception):
    """Ends a run after its first call to advance, carrying the state."""


@pytest.fixture
def swept_bytes(monkeypatch):
    """measure(network, specs, until) runs `specs` as one batch through the
    run driver, as run (until=False) or run_until would, up to the end of
    the first block of sweeps, and returns the bytes that the sweeps hold
    then, as _peak_bytes charges them: the buffer, twice for a batch of
    several instances (the old and the fresh one while instances are
    dropped), the sweep table, the _ellpack table, one stack of gathered
    terms and the accumulator, as large as the table's steps."""
    sweep = engine.advance

    def stop(state, count=1):
        sweep(state, count)
        raise _Swept(state)

    def measure(network, specs, until):
        with monkeypatch.context() as patch:
            patch.setattr(engine, "advance", stop)
            with pytest.raises(_Swept) as swept:
                engine._drive(network, specs, until)
        state = swept.value.args[0]
        table = state._table
        return (min(len(specs), 2) * state._history.nbytes
                + sum(a.nbytes for a in (*table, *state._band))
                + table[1].nbytes + table[2].nbytes)

    return measure
