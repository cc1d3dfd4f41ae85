import os
import subprocess
import sys
from pathlib import Path

import pytest

import awgshuffle
from awgshuffle import AwgSpec, Topology, build_network


def rewired(topology, *, outputs=None, wavelengths=None):
    """``topology`` with new ``outputs`` or ``wavelengths``, built by the Topology
    constructor and so through its length, type and range checks."""
    return Topology(topology.params,
                    topology.outputs if outputs is None else outputs,
                    topology.wavelengths if wavelengths is None else wavelengths)


@pytest.fixture(scope="session")
def awg36():
    return AwgSpec(3, 6)


@pytest.fixture(scope="session")
def w323():
    return build_network(3, 2, 3)


@pytest.fixture(scope="session")
def child_env():
    """The environment of a child interpreter that imports this awgshuffle."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(awgshuffle.__file__).parents[1]), env.get("PYTHONPATH", "")])
    return env


@pytest.fixture(scope="session")
def peak_kb(child_env):
    """Run a statement in a fresh interpreter; return its ``ru_maxrss`` in KiB."""

    def measure(statement):
        # each child reports its own RUSAGE_SELF peak on its last line
        script = (f"import resource, awgshuffle\n{statement}\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        done = subprocess.run([sys.executable, "-c", script], env=child_env,
                              capture_output=True, text=True, check=True)
        return int(done.stdout.split()[-1])

    return measure
