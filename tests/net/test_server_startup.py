"""A cache node's start-up, in a process of its own.

Proteus turns cache servers on to follow load, so a node's exec-to-serving
time is part of every scale-up.  ``import repro.net.server`` loads the
store, the digest and the protocol and nothing else: ``repro``'s exports
load lazily, and the Bloom filters import numpy only for their batch
operations and the digest snapshot.  These tests run fresh interpreters,
so nothing this process imported can hide an eager import.
"""

import asyncio
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

from repro.bloom.config import optimal_config
from repro.net import protocol as proto
from repro.net.client import MemcachedClient

SRC = Path(__file__).resolve().parents[2] / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

#: every ``repro`` module ``import repro.net.server`` may load
SERVER_MODULES = {
    "repro", "repro.errors",
    "repro.bloom", "repro.bloom.bloom", "repro.bloom.config",
    "repro.bloom.counting", "repro.bloom.hashing",
    "repro.cache", "repro.cache.item",
    "repro.cache.stats", "repro.cache.store",
    "repro.net", "repro.net.parser", "repro.net.protocol", "repro.net.server",
}

EXPECTED_KEYS = 2_000


def test_importing_the_server_loads_only_the_store_the_digest_and_the_protocol():
    probe = (
        "import json, sys, repro.net.server; print(json.dumps(["
        "sorted(m for m in sys.modules if m.split('.')[0] == 'repro'),"
        "'numpy' in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=ENV, capture_output=True,
        text=True, check=True,
    ).stdout
    loaded, numpy = json.loads(out)
    extra = sorted(set(loaded) - SERVER_MODULES)
    assert not extra, f"import repro.net.server also loads {extra}"
    assert not numpy, "import repro.net.server loads numpy"


@contextmanager
def _node(*flags: str):
    """``python [flags] -m repro.net.server --port 0``, listening; yields
    its port and terminates it afterwards."""
    proc = subprocess.Popen(
        [sys.executable, *flags, "-m", "repro.net.server", "--port", "0",
         "--expected-keys", str(EXPECTED_KEYS)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV, text=True,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("LISTENING "), (
            f"node did not start: {line!r}\n{proc.stderr.read()}"
        )
        yield int(line.split()[1])
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()


def test_python_dash_m_runs_the_server_module_once():
    """runpy warns when the package import has already loaded the module
    it is about to run as ``__main__``; as an error, that warning would
    stop the node before it listens."""
    with _node("-W", "error::RuntimeWarning") as port:
        assert port > 0


def test_a_spawned_node_serves_the_digest_of_what_it_stores():
    """The snapshot is where a node first loads numpy: its bytes across
    the process boundary equal an in-process filter's over the same keys."""
    keys = [f"page:{i}" for i in range(300)]
    expected = optimal_config(EXPECTED_KEYS).build()
    for key in keys:
        expected.add(key)

    async def fetch(port: int):
        async with MemcachedClient("127.0.0.1", port) as client:
            await client.set_multi({key: b"v" for key in keys})
            ack = await client.get(proto.KEY_SNAPSHOT)
            return ack, await client.get(proto.KEY_FETCH_DIGEST)

    with _node() as port:
        ack, digest = asyncio.run(fetch(port))
    assert ack is not None
    assert digest == expected.snapshot().to_bytes()
