"""The problem-file writer and reader are pinned byte for byte: the text
emit gives and the arrays parse_text rebuilds, over the paper's examples,
seeded random connections and each of their entries on its own, hash to
the SHA-1s the reader and writer gave when each spelled out its own frame
layout per block kind. A file with an explicit -0.0 homogenization corner
reads as the +0.0 corner an absent one gives.
"""

import hashlib

import numpy as np

from sepqcqp.cli import emit, parse_text
from sepqcqp.examples import make_example51, make_example52
from sepqcqp.qcqp_model import SeparableQcqp

from instances import family, random_connection
from test_instances import draw_hash


def models():
    """The connections and models of the pins, each connection followed
    by its entries on their own."""
    conns = [make_example51(k / 20) for k in range(81)]
    conns += [make_example52(seed) for seed in range(60)]
    conns += [random_connection(seed)[0] for seed in range(150)]
    conns += [family(2.0, copies) for copies in (1, 4)]
    for x in conns:
        yield x
        if isinstance(x, SeparableQcqp):
            yield from x.blocks


#: a one-variable qcqp file whose corner is written as -0.0, the objective
#: with a -0.0 off-diagonal entry as well
NEGATIVE_ZERO_CORNER = """\
schema_version 1
kind separable
relations le
rhs 1.5

block qcqp
n 1
matrix 0
1 1 2.0
1 2 -0.0
2 2 -0.0
end
matrix 1
1 1 1.0
2 2 -0.0
end
end
"""

#: SHA-1s of the emit texts, of the parse_text arrays of those texts and
#: of the -0.0-corner file's arrays
EMIT_PIN = "33058f9bc3ff6a9b002ba8814ece48f20d754221"
PARSE_PIN = "8ba0db652633045e9bfc8bfe89048ce9ced1ea62"
CORNER_PIN = "b9ff01e373f345c2aa96f76255d37a634cfbb0c4"


def test_emit_is_pinned():
    h = hashlib.sha1()
    for x in models():
        h.update(emit(x).encode())
    assert h.hexdigest() == EMIT_PIN


def test_parse_text_is_pinned():
    assert draw_hash(parse_text(emit(x)) for x in models()) == PARSE_PIN


def test_negative_zero_corner_reads_as_zero():
    s = parse_text(NEGATIVE_ZERO_CORNER)
    assert draw_hash([s]) == CORNER_PIN
    for f in (s.blocks[0].objective, s.blocks[0].constraints[0][0]):
        assert not np.signbit(f.B.array[1, 1])
