"""Results must not depend on the interpreter's hash seed.

``coupled_damage`` adds the eta terms of a row's other mechanisms in a
fixed order.  Iterating a set of ``str``-Enum mechanisms instead follows
``PYTHONHASHSEED``, and with pools of all three mechanisms the two eta
terms then sum in a per-process order.  Seeds 0 and 1 iterate such a set
in different orders, so this runs the same contraction in a subprocess
under each and compares the digests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

#: every pool of rows 100-139 of hynix-a-8gb at a random damage, then the
#: coupled damage of both directions of each row, hashed
SCRIPT = """
import hashlib, random, struct
from repro import make_module
from repro.disturbance.calibration import FlipDirection
from repro.disturbance.ledger import N_POOLS

model = make_module("hynix-a-8gb").model
led = model.ledger
rng = random.Random(7)
digest = hashlib.sha256()
for row in range(100, 140):
    slot = led.slot(0, row)
    for pool in range(N_POOLS):
        led.dmg[slot * N_POOLS + pool] = rng.uniform(0.1, 1.5)
        led.pool_order[slot].append(pool)
    for direction in FlipDirection:
        damage = model.coupled_damage(0, row, direction)
        digest.update(struct.pack("<d", damage))
print(digest.hexdigest())
"""


def _digest(seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    return proc.stdout.strip()


def test_coupled_damage_ignores_the_hash_seed():
    assert _digest(0) == _digest(1)
