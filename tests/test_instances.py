"""The shared instance builders draw byte for byte what they drew where
they were first defined: make_example51 and make_example52 in
sepqcqp.connection, the rest in the test files that used them. Each
builder's instances are hashed, every array by its dtype, shape and
bytes, and the SHA-1 is pinned at the values those definitions gave.
"""

import hashlib

import numpy as np
import pytest

from sepqcqp.examples import make_example51, make_example52
from sepqcqp.qcqp_model import HomSepQcqp, Qcqp, QuadFunc, Relation, SeparableQcqp
from sepqcqp.sdpr_builder import BlockSdp, SdpSolution
from sepqcqp.symkernel import SymMatrix

from instances import (
    convex_rank_two,
    family,
    random_connection,
    sign_salvage,
    walk_instance,
)


def _feed(h, x) -> None:
    if isinstance(x, SeparableQcqp):
        h.update(b"S")
        _feed(h, [x.blocks, x.gamma])
    elif isinstance(x, Qcqp):
        h.update(b"Q%d" % x.n)
        _feed(h, [x.objective, x.constraints, x.rhs])
    elif isinstance(x, HomSepQcqp):
        h.update(b"H")
        _feed(h, [x.blocks, x.relations, x.rhs])
    elif isinstance(x, QuadFunc):
        _feed(h, x.B)
    elif isinstance(x, SymMatrix):
        _feed(h, x.to_dense())
    elif isinstance(x, Relation):
        h.update(x.symbol.encode())
    elif isinstance(x, BlockSdp):
        op = x.operator
        h.update(repr((x.block_dims, x.normalization_rows, x.dropped_rows)).encode())
        _feed(h, [x.objective, op.active, op.stacks, op.slack_coeffs, op.rhs, op.origins])
    elif isinstance(x, SdpSolution):
        h.update(x.status.value.encode())
        _feed(h, [x.blocks, x.dual_blocks, x.slacks, x.dual_multipliers, x.value])
    elif isinstance(x, (list, tuple)):
        h.update(b"(%d" % len(x))
        for y in x:
            _feed(h, y)
    elif isinstance(x, str):
        h.update(x.encode())
    else:
        a = np.asarray(x)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())


def draw_hash(instances) -> str:
    h = hashlib.sha1()
    for x in instances:
        _feed(h, x)
    return h.hexdigest()


def _random_connections(seeds, **kwargs):
    # the generator's state after the draw, since callers draw on from it
    for seed in seeds:
        s, rng = random_connection(seed, **kwargs)
        yield s, repr(rng.bit_generator.state)


#: builder -> its instances
DRAWS = {
    "make_example51": lambda: (make_example51(k / 20) for k in range(81)),
    "make_example52": lambda: (make_example52(seed) for seed in range(20)),
    "walk_instance": lambda: (walk_instance(seed) for seed in range(50)),
    "random_connection": lambda: _random_connections(range(50)),
    "random_connection-n20": lambda: _random_connections(range(5), n_fixed=20),
    "family": lambda: (family(a, p) for a in (0.0, 2.0, 3.0) for p in (1, 2, 32)),
    "routes": lambda: (convex_rank_two(), sign_salvage()),
}

#: draw_hash of each builder's instances, computed with the definitions
#: before they moved
PINNED = {
    "make_example51": "84eb39dd297e5be11e2b33695bdfee5089443133",
    "make_example52": "f9dcdb82d13b4e084762137cde7362a35e43b4e7",
    "walk_instance": "b5d5d5aa17feabc44f2355a4ba80e59fc058530d",
    "random_connection": "bd0f79d8b7918f5d8b55d28940195b1181d1bcb8",
    "random_connection-n20": "9df9ec73a5f76da9221438e299b80255e67449c7",
    "family": "a7cb2a5382d76acad61370dc0a37289b9209a48e",
    "routes": "baac1446975b316c241d9717783f60ee2373223c",
}


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_draws_are_pinned(name):
    assert draw_hash(DRAWS[name]()) == PINNED[name]
