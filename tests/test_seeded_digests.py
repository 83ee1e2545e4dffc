"""Seeded sampler outputs pinned by digest, so that a kernel change that
alters any seeded stream fails here.

Each digest covers the reference windows of a cell and the sampled t, des,
des_inv and length.  The digests were last recomputed, all seventy, with
numpy 2.4.6 when the tower draw moved into the one-pass kernel tower_rows
on one shared prefix table.  Its stream is rng.random((rows, stages)), a
row's stages in a row, where the earlier stage-major draw read each
stage's uniforms in blocks of 16 stages; and a stage now orders its
choices by length contribution, reflected at q > 1, where the earlier
tables kept choice order.  So every q != 1 output changed, and at q = 1
the lengths, which come from the same kernel on a linear table (t, des
and des_inv at q = 1 come from the unchanged uniform_rows shuffle).  A
numpy release that changes Generator streams changes them too: recompute
them then, on a commit whose kernels are known to be right, with
PYTHONPATH=src python tests/test_seeded_digests.py, which prints the
table.
"""

import hashlib

import pytest

from coxmal.coxeter import GroupDescriptor
from coxmal.mallows import SAMPLE_CHUNK, MallowsSpec, sample_statistic
from window_reference import sampled_windows

QS = (1e-3, 0.5, 1.0, 2.0, 1e3)
# window sizes n; type D starts at D4, its smallest group
CELLS = [("A", n) for n in (2, 3, 7, 50, 201)] + [("B", n) for n in (2, 3, 7, 50, 201)]
CELLS += [("D", n) for n in (4, 7, 50, 201)]


def _group(kind, n):
    return GroupDescriptor(kind, n - 1 if kind == "A" else n)


def _count(n):
    """Two chunks at small rank, so that two threads split the work; one
    short chunk at large rank, to keep the test quick."""
    return SAMPLE_CHUNK + 100 if n <= 4 else 500


def _digest(kind, n, q, threads):
    """sha256 (first 16 hex digits) of the sampled windows and of t, des,
    des_inv and length, seeded by the cell."""
    g, count, seed = _group(kind, n), _count(n), 1000 * n + ord(kind)
    h = hashlib.sha256(sampled_windows(g, q, count, seed, threads=threads).tobytes())
    spec = MallowsSpec.make(g, q)
    for stat in ("t", "des", "des_inv", "length"):
        h.update(sample_statistic(spec, stat, count, seed, threads=threads).tobytes())
    return h.hexdigest()[:16]


DIGESTS = {
    "A2": ['de23f9b72e22e6d1', 'bc380d72b0d993e5', '66b7997e06f13ed9', '17b0cd46d23c735f', '17924497d6e121d5'],
    "A3": ['32d225f36e9a6792', '681d4706f87b50dd', '20494c5057799847', 'd9ae697d146d0404', '91c93fe5ab42591c'],
    "A7": ['0792bff7693c4749', '3f043e4fe45657a3', 'ab03f6f8d606964f', '456a1f08b226d3fd', '6da965a50d521903'],
    "A50": ['58283c5c80fd8509', '3d5330ddd77357f1', '0f6e3766f9ce8b61', '44770be43d5d4c47', '9f2fc120408c7b78'],
    "A201": ['645ecd01c8760e56', 'fe104c7d33a1e7ec', 'a1fcdc28a9cd6b06', 'a826e1f3fc78e4ac', '2ac69f2e1ad099a3'],
    "B2": ['ef1aa08fce5335ca', 'f61640d97936c32a', '17c40e07cd90bcfe', '4208dcc161bcc413', 'e3c394d9f639c95e'],
    "B3": ['599c7df29db695c3', 'c9399585d15e9f2a', '0e9a1f4a8ab04f44', '1b93cd7b0433537f', '6b36e2e83f7d3a51'],
    "B7": ['8dfa61c61bad86c4', '53ada1afcddde28b', '35909761cadbe604', '4b064e3b094a5b74', '42e1f3d80fb1abf2'],
    "B50": ['71fb8e328b2026ca', '9b2629f2cc174ecc', '5859fc48165478e0', '14f45511685f490e', '55169614b088c0e7'],
    "B201": ['878554364c893469', 'f854c78715265679', 'f4e09e367cb536e9', '817fff16e5bbba3e', '658e352ce0df6a70'],
    "D4": ['b71381d42e5c7003', 'c7358ab5021e3e39', '724c9edac667ab28', '4315c3b9670d991a', 'ce35c02c906e1bf9'],
    "D7": ['7bc4eca1f7f60bb7', '65477d1aac13edca', '5a9523947c4e915d', 'cf5f7dbfce5b25ed', 'caba47004719090d'],
    "D50": ['1d98e5549fe191e2', 'e1d83480ce99b2ff', '1e7dccbbcf5a459e', '84dc0d24639b2a87', '644893a7bdca7a51'],
    "D201": ['297f643db5e30875', '8a89b957e3363ad8', 'b60e294012d1f86f', 'fa230598919d0361', 'c9be37119a3b3615'],
}


@pytest.mark.parametrize("kind,n", CELLS)
def test_seeded_outputs_match_pinned_digests(kind, n):
    want = DIGESTS[f"{kind}{n}"]
    for threads in (1, 2):
        got = [_digest(kind, n, q, threads) for q in QS]
        assert got == want, (kind, n, threads)


if __name__ == "__main__":
    for kind, n in CELLS:
        print(f'    "{kind}{n}": {[_digest(kind, n, q, 1) for q in QS]},')
