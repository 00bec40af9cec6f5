"""Byte-for-byte pins on the CLI's seeded output.

Each digest is the sha256 of stdout for one invocation at its default
arguments (seed 42), or at the larger sizes named in its argv, recorded
from the original implementation.  A change
that alters any verdict, any rendered value, or the order of random draws
changes a digest.
"""

import hashlib

import pytest

from posetdet.arith import divisors
from posetdet.cli import EXIT_OK, IDENTITY_NAMES, main

GOLDEN = [
    ("verify main", "6a5b8fbdf32a356856a56c8306074927092d1605114afe9963570272fd1df083"),
    ("verify main --machine", "650ececcdd293181e28a1db74477e6ea81795494474eb181a9d6de1724cb8fe7"),
    ("verify weighted", "1eb66cf62e71195cd0f3fa566de16ea6fe678d990375855b774a5c4391d68231"),
    ("verify weighted --machine", "b0d58be9381635b0e22c8540bee0226c636ee5e032e12d2b381c5835b35445f5"),
    ("verify lindstrom", "ef307df3a5b53d943d4a9afe512cec933efa973fb8c2184ea2896ec00cd9bc73"),
    ("verify lindstrom --machine", "ccb9c5e5a015c6945059576c421de1b8dad7e3f5005acaefba357b693b915e0a"),
    ("verify meet-closed", "109a3ce29c01bedab1064f2716733d31527c18c139bfb8d8b5c96d18fc76ccf2"),
    ("verify meet-closed --machine", "814c725c3e51c4d7204e47b7c0446e672238e086e55c77c5ff626811773eb06e"),
    ("verify smith", "c70b81b33361feefd93e1213eaf26d72483eacd32c6bb6bad4aca104098ecf2d"),
    ("verify smith --machine", "248326c3a0accf574b669cd8129f73f81f3e5a38c6aca6952d396386b9ab7a41"),
    ("verify apostol", "6ac3ee108ac24b7c665adfc1b5f9faee918bc36b3ddff32b405d5cbf57096a5e"),
    ("verify apostol --machine", "82aef10fbef08809fbed46fd527dd5145abb64c3b74dfd188a423157d921f769"),
    ("verify daniloff", "acce6433db66b693713e0ef2f773bd3fd2d66d0aad0344c7224a5d2100edd887"),
    ("verify daniloff --machine", "233f5853d8978cc3d6b11730dc693067bba41bf67a03ab2b02067f6c8a764f6f"),
    ("verify stembridge", "5d0c2fd79d9cf1bdde43067083b46fdebcc6652732d67a38a72c18515a838b6c"),
    ("verify stembridge --machine", "94296c3b496ac785a6ca604faab0275f2dbd1e12bb78649c969401e40b80069c"),
    ("verify three-layer", "c607823683ad813fbb32326742dfe3b5084859bec735491f2e1f5abefc3e64bd"),
    ("verify three-layer --machine", "ec234791cccc224eb1a0eb804ee0c991dd43e16f4ae2243eaa7e4aa37c9a6662"),
    # the paths benchmark workload's size: digraphs of up to 18 vertices
    ("verify three-layer --max-size 6", "6a12557cb8c782a46382ff53efc3d97cd1ac6e7cebf41455b00712185b702f89"),
    ("verify three-layer --max-size 6 --machine", "5edd94a7d9a04cb1fd4fe5838b05176935c9a4161f73fda1a49058a20a70cae8"),
    # the largest accepted size, digraphs of up to 192 vertices; recorded
    # from the sweep over path heads, as the depth-first family search it
    # replaced rejected sizes above 6
    ("verify three-layer --max-size 64", "63148520495130ab6a76872b4b07969ec2e292ab8c4b4063a735ec68a399a418"),
    ("verify three-layer --max-size 64 --machine", "863dd685f81557175014ee5fa09cf4747e8eef0d007d492395baaf5ba471034a"),
    ("verify tutte", "eff5d24add421435251fc4d1e4fc406882dc932e0a4548a8301f32654af365c8"),
    ("verify tutte --machine", "8e23707c695502f03aded6a971211d97c0d4bdd03d2985b38f3a562932b9ed2a"),
    # the smallest size, the first that the poly-chromatic benchmark
    # workload runs; recorded at 87278e1, before refinement became a
    # bitmask test and the Beraha factors cancelled by exponent
    ("verify tutte --n 2", "958dadce0f19ff6e8d3cc3df3f0fc95e001e1ce147c20d8724e6ce670f419a49"),
    ("verify tutte --n 2 --machine", "93e186ac4e15bde70a1e3097b07915c2e0fd0b9f71b4328825824381b59822d6"),
    ("verify tutte --n 4", "197389a73c46ac310da1e98ff1315727734ed8cf78923d5b24bcc041c21e3fff"),
    ("verify tutte --n 4 --machine", "00850bc12b4c5215f7573ffc89806ef146841f05e0495b30328e70ea4586358b"),
    ("verify tutte --n 5", "4914e287f5c8ea26aa18177aa5ae7dfff3303387451154a8173336d21dccccac"),
    ("verify tutte --n 5 --machine", "e37bfa79de629815cb1b14bf9f83128e42274e44135810affc733dfb91992753"),
    # recorded from the C_n x C_n join-table evaluation (about 9 min); plain
    # output only, so the suite runs n = 6 once
    ("verify tutte --n 6", "9d200b1c06b144f2ea674c5d4b50489036e75c29473e4c88e34b29139bb1dcbb"),
    # the int-large benchmark workload's sizes, recorded at ec7951d, before
    # det_bareiss divided its entries with the builtin divmod
    ("verify apostol --n 64", "77ec86b852ffac6d2a9d51dda2967f8da7cc7c7a4f31396b4482fd55ebc9cefc"),
    ("verify daniloff --n 64", "307dbcd6987304d41e5c50a7c7ab62012999b49165eaebdccfb6935746778405"),
    # its slowest invocation: the 120 divisors of 55440
    (
        "verify smith --set " + ",".join(map(str, divisors(55440))),
        "cd3683ce9d0af119f2e85e7a5dbda3eb2ea0920e31d81d3e9e72046727a4e01c",
    ),
    # the two heaviest accepted det inputs, recorded at 4d86a05, before
    # det_bareiss deferred its pure row rescales: the 240 divisors of
    # 720720, and 200 mostly singular non-symmetric dets of up to 64 x 64
    (
        "verify smith --set " + ",".join(map(str, divisors(720720))),
        "3176e2c8a70cac56a340c96d278ac41a8ee65b0a2d5eaddad1b0faa817a484e8",
    ),
    ("verify lindstrom --max-size 64 --cases 200", "43c0d85c258b329e3b0f3de0fb3393e3d65e91d28de9ca0a94ff0718aad08fdf"),
    # the call sites that read an incidence function's ring from its
    # values, at 64 elements: scale_by_source and random_symmetric_pair
    ("verify weighted --max-size 64", "8e3ff5c0ac87809d2195ffa24054602019a61c8d5001322a83f3b68dc997b71e"),
    ("verify definiteness --max-size 64 --cases 40", "eaca40199e276cf9eda0b30c74f409e6a02cdbb2bb8ff1d56d0d4e40c9cba354"),
    # its cap at the default case count, recorded at 9a0a838, before the
    # leading minors were read off det_bareiss's one elimination
    ("verify definiteness --max-size 64", "6a9c0fa55a37a7f6e21c996f650218878cf7239382d7364a50da058f64417d6e"),
    ("verify definiteness --max-size 64 --machine", "5323cdba111d99058eb0232881dc01087f8ba066bfe9d0b90c7928db62b8d914"),
    ("verify definiteness", "0e73585e6a01117bd15936ee0725bd4d9830bc996e3193e770ce72733ce30d61"),
    ("verify definiteness --machine", "102c249360784e92a65eb26d69277dbdf3d73b8ce640d9f317e7ac7fe53eb0d3"),
    ("random-suite", "9777d6eb557053aa5463fe739afa0b6db305d4a07abb93641e4e4ae87a4bb7fa"),
    ("random-suite --machine", "2add27b7e71d6d5595bab264f34250c4e3896de2d7d77b5d5d5ed3d39ffa63b2"),
    # the product matrix, its Fᵀ G cross-check and the meet builders at 64
    # elements, recorded at 687714a, before the builders read the incidence
    # and poset tables directly and the product became column tuples
    ("random-suite --max-size 64", "b118f39f9ba56bab525d37c2f144677f31b371a7a346ec94f962978604ecb62d"),
    ("random-suite --max-size 64 --machine", "4f24c823d4cebb4802ad8bd0914d2ff3454e2ecf62e362702107f21fc96f24c0"),
    ("verify main --max-size 64 --cases 200", "e08878df952c8d821502bdea7a8f69d3bb65d93d428710ded22bed06d24b9d49"),
]


def test_golden_covers_every_family():
    pinned = {argv.split()[1] for argv, _ in GOLDEN if argv.startswith("verify ")}
    assert pinned == set(IDENTITY_NAMES)


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_stdout_matches_golden_digest(capsys, argv, digest):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest
