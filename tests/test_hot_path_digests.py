"""The bits of the hot paths at d > 2 stay fixed across performance work.

``test_golden_outputs.py`` runs only d = 2, where the simplex Newton systems
are 1 x 1.  These digests pin the 9 x 9 reduced systems of BISONS at d = 10,
the log-loss history solves of the LB-FTRL player at d = 3 and the
adversary's generator at d = 3: each array's sha256 over its C-order bytes,
recorded with numpy 2.4.6 and Python 3.11.7 on x86-64.  As there, on another
numpy build a mismatch asks for the digests to be recomputed from a
known-good commit, not for the code to change.
"""

import hashlib

import numpy as np

from bisons.lbftrl import AdversaryPlan, generate_returns, run_lbftrl
from bisons.vector import default_params, run_bisons


def _digests(obj, *names):
    return {name: hashlib.sha256(np.ascontiguousarray(getattr(obj, name)).tobytes()).hexdigest() for name in names}


def test_bisons_d10_run():
    rows = np.random.default_rng(17).dirichlet(np.ones(10), size=2000)
    result = run_bisons(rows, default_params(10, 11_000))
    assert not result.violations
    assert _digests(result, "plays", "losses", "resets") == {
        "plays": "d1697f26298c30cdad49bed6fe349006172605ebda7d3c5c693a6a524ccf055e",
        "losses": "c59929ac98c28404a93bc56957baa7819830113ba4343e14373ff318d95cb134",
        "resets": "2da42fb1d7bd8524e83d5a1e332bad697c8769ba430770a19bec630eb8ffcaa8",
    }


def test_lbftrl_d3_run():
    rows = np.random.default_rng(23).dirichlet(np.ones(3), size=800)
    assert _digests(run_lbftrl(rows, 1.0), "plays", "losses", "terms") == {
        "plays": "8895d5b66d5327c244c859b774cdce801214dd29bf833d2ad7cb7f4d68dfbd1f",
        "losses": "7d2a34a3ad9463e8d72cd73a66a65bcb9499cfd9a79db0fc9c487bdf058c02d7",
        "terms": "840b6e23f1041e9164b4860f815dbedb71c180f1d083ae4c2b4c66d03aa18268",
    }


def test_lbftrl_d3_generator():
    gen = generate_returns(AdversaryPlan.build(3, 10_000, 0.15), 1.0)
    assert _digests(gen, "returns", "movement_flags") == {
        "returns": "65e1108eeec1f2351a9bcafb0acbe388d5b0a27a3319334685a06011cad8a1bc",
        "movement_flags": "c22136075d0c5ec6398ec0dc78816a8f31a9535d8a8d142ffda3352e245f626f",
    }
