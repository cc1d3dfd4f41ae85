import os
import subprocess
import sys
from pathlib import Path

import pytest

import awgshuffle
from awgshuffle import AwgSpec, Topology, build_network


def rewired(topology, *, outputs=None, wavelengths=None):
    """``topology`` with new ``outputs`` or ``wavelengths``, built by the Topology
    constructor and so through its length, type and range checks.

    A new field is any sequence of ints (the tests pass lists); a field
    left out is the fabric's own view, which the constructor copies.
    """
    return Topology(topology.params,
                    topology.outputs if outputs is None else outputs,
                    topology.wavelengths if wavelengths is None else wavelengths)


# The argv prefix of a fresh interpreter whose ru_maxrss is its own. Linux carries
# a process's peak RSS across fork and exec, so a child started straight from this
# test process would read this process's peak (over 100 MB in a full run) whatever
# it did itself. Started from a bare interpreter, it starts from that one's peak.
FRESH_PYTHON = (sys.executable, "-c",
                "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)",
                sys.executable)


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
    """Run a statement in a fresh interpreter (:data:`FRESH_PYTHON`); return its
    ``ru_maxrss`` in KiB."""

    def measure(statement):
        # each child reports its own RUSAGE_SELF peak on its last line
        script = (f"import resource, awgshuffle\n{statement}\n"
                  "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
        done = subprocess.run([*FRESH_PYTHON, "-c", script], env=child_env,
                              capture_output=True, text=True, check=True)
        return int(done.stdout.split()[-1])

    return measure
