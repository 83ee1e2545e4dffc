"""Seeded sampler outputs pinned by digest, so that a kernel change that
alters any seeded stream fails here.

The digests were computed with numpy 2.4.6 before the lower-bound guide and
the two-sided label pop went into the tower kernels.  The nine q = 1
entries of B and D were recomputed when q = 1 rows moved to one 64-bit
word per entry, which changed their signs only.  All fourteen q = 1
entries were recomputed when q = 1 rows became an inside-out Fisher-Yates
shuffle in place of the stable argsort of the words' uniforms: the same
words now give other permutations, type A's included.  Every q != 1 entry
kept its digest through both.  A numpy release that changes Generator
streams changes them too: recompute them then, on a commit whose kernels
are known to be right, with PYTHONPATH=src python tests/test_seeded_digests.py,
which prints the table.
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
    "A2": ['95c660774f52b56a', '0887a44f2b06ed3c', 'dbd58f56f253243a', '2642ae55f246f2d2', '7ff08b3e68381861'],
    "A3": ['0c9cea4ae533888c', '323879417659540b', 'a7bc94ba5ac5bcea', '55aaa91f828b968c', '88f445e1666dc141'],
    "A7": ['f3d50739723027fc', '565c3293c41ae37b', 'f3c3b3dd40cd35ba', 'c3993d9fa4500a13', '7a6179f9d4475472'],
    "A50": ['ce01cda51298ddc6', '3b5b0932fe6d00fd', '73c105dc6c4ed47f', 'b74517da2e1341cb', '389085690e37eaec'],
    "A201": ['f9c066f6cc6543e2', '6c70f1c791f33ff0', 'ca6d7b8f587e9412', '9a5a6a1ea4dc4217', 'd918fe8b31b46b7b'],
    "B2": ['556df6d99055be40', 'e497c1c14c4346d3', '9d652c6d44eda266', '2e3fb8cf93522cda', 'ea5c395ad681c760'],
    "B3": ['5a8d8defb40d0f2c', '6f2f9e755380773a', '4506a7b980756d21', '6f5b7d9b7b3124e8', '232b0b5cdf84a9d0'],
    "B7": ['71cae99dfced14c2', '13cc1e85f200ae01', '3a97749d11fef87c', 'b3fc0c4b65968c0f', '5db7a3800e5a7139'],
    "B50": ['e8ed9c57211fefa7', '88dfd04c7ced7870', '54825d76251863c8', 'b8cdca1dcbdf10c3', '8fbd06c9a5ac39d6'],
    "B201": ['b4f038d616b9eb53', 'b93811e76f4efd84', '5bedf6aba7dc1362', 'bd669256bbec8396', '03c511621d2cb804'],
    "D4": ['911223bf2ab60e2c', '439962efe037c173', 'c3d41d3413de717b', '3e56d2cc66d34a93', '6f2a780222896275'],
    "D7": ['7867ebc1b71f3aaf', 'abe1927252275241', '8709f7f4752ac321', 'd670594619b85341', '9598fdb55c5ff80d'],
    "D50": ['1c6ed33d6a8c4456', 'cb25d7f6b7db4806', '2fa347ed2ab6758c', 'c5c9232ad6289ada', '9ad90be4806216a8'],
    "D201": ['281c6c24e28f8305', 'cd6cb930128a6937', '2e8895a5479ee47e', '89eb043e1294687c', 'd5105578ff693b4b'],
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
