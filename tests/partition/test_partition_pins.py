"""Golden pins: min-cut and random partitions of the MCNC stand-ins.

Each case is ``circuit@scale/nblocks/seed``.  Its digest covers the
``multiway_partition`` and ``random_partition`` assignments, both cut
sizes and the ``partition_pass`` meter counts, so any change to the graph
construction, FM move order, tie-breaking or pass count shows up here.
The independent and L-shaped results depend on these partitions.
"""

import hashlib
import json

import pytest

from repro.circuits.mcnc import MCNC_SUITE, make_circuit
from repro.machine.costmodel import CostMeter
from repro.partition import circuit_graph, cut_size, multiway_partition, random_partition

SCALES = (0.05, 0.1)
BLOCKS = (2, 3, 4, 6, 8)
SEEDS = (0, 1)

PINS = {
    # misex3
    "misex3@0.05/2/0": "7b0d5a20cd756cb9",
    "misex3@0.05/2/1": "0a5090e933dd5c52",
    "misex3@0.05/3/0": "e9d365d5bea14bfe",
    "misex3@0.05/3/1": "25233afe9e4aeb4d",
    "misex3@0.05/4/0": "2e2626d732dd3683",
    "misex3@0.05/4/1": "26f9210f35b023fe",
    "misex3@0.05/6/0": "f63be0ba6db342ab",
    "misex3@0.05/6/1": "04361a29700cf020",
    "misex3@0.05/8/0": "3bfa13f5cf2b9250",
    "misex3@0.05/8/1": "a9f1370b5ef7ce57",
    "misex3@0.1/2/0": "dc9a69d127646d53",
    "misex3@0.1/2/1": "34384c36325d56e2",
    "misex3@0.1/3/0": "881b269ff7646d51",
    "misex3@0.1/3/1": "a101fa8f6858a87f",
    "misex3@0.1/4/0": "fd1b003c8190fc8a",
    "misex3@0.1/4/1": "036ddc5befb94833",
    "misex3@0.1/6/0": "b4e75abcf36a3e77",
    "misex3@0.1/6/1": "425b574aa02670d5",
    "misex3@0.1/8/0": "119903b69f9d33c0",
    "misex3@0.1/8/1": "11b0d577e707d57c",
    # dalu
    "dalu@0.05/2/0": "be835d496668bada",
    "dalu@0.05/2/1": "9f1167821cd80b65",
    "dalu@0.05/3/0": "fd27df111e761780",
    "dalu@0.05/3/1": "4ccedf4951cc48ca",
    "dalu@0.05/4/0": "d44080246278df45",
    "dalu@0.05/4/1": "18ad9550181510dd",
    "dalu@0.05/6/0": "ac511a1806a367f3",
    "dalu@0.05/6/1": "2f9af070ccf33b9f",
    "dalu@0.05/8/0": "de881c4a88f679ec",
    "dalu@0.05/8/1": "e5e95ae4a41acecb",
    "dalu@0.1/2/0": "7369a4fb3bd11b7c",
    "dalu@0.1/2/1": "4b22004963cb77b4",
    "dalu@0.1/3/0": "ac563407d0ef3e2c",
    "dalu@0.1/3/1": "a2d5f4bd94b0ead5",
    "dalu@0.1/4/0": "70372029f6e7c450",
    "dalu@0.1/4/1": "471a99f3bd7d54d5",
    "dalu@0.1/6/0": "2405309557e58bac",
    "dalu@0.1/6/1": "516f0487c60f5def",
    "dalu@0.1/8/0": "3c00ef3f2eb6e7ec",
    "dalu@0.1/8/1": "cc1bc1c8ef624a89",
    # des
    "des@0.05/2/0": "d949f8c37d2085da",
    "des@0.05/2/1": "6378a6fd49e0f15a",
    "des@0.05/3/0": "cdfb3076e55f7c51",
    "des@0.05/3/1": "6a5e85800906792c",
    "des@0.05/4/0": "8b502633f10fb425",
    "des@0.05/4/1": "a931fc68946074ef",
    "des@0.05/6/0": "8ea4fe3050b99532",
    "des@0.05/6/1": "62e665d4a724f233",
    "des@0.05/8/0": "2c3e124361f2d312",
    "des@0.05/8/1": "eb41d6913b84dba0",
    "des@0.1/2/0": "7a9da577eee0fd3a",
    "des@0.1/2/1": "4e11e8d8db1c0929",
    "des@0.1/3/0": "ada85e6177294171",
    "des@0.1/3/1": "5cadc65e5807221d",
    "des@0.1/4/0": "1a55e6e54f865ac2",
    "des@0.1/4/1": "a083f1539972d588",
    "des@0.1/6/0": "c14cf904f009fa3b",
    "des@0.1/6/1": "cb09712c506eab77",
    "des@0.1/8/0": "0cfe64191becc87e",
    "des@0.1/8/1": "d9d01719c84da7cd",
    # seq
    "seq@0.05/2/0": "5c361ab7e677db89",
    "seq@0.05/2/1": "bf93258e86a49ce6",
    "seq@0.05/3/0": "d5ebfa8e1f851b28",
    "seq@0.05/3/1": "997ea7138e1e944d",
    "seq@0.05/4/0": "f4537e98479368de",
    "seq@0.05/4/1": "433818aabc9734df",
    "seq@0.05/6/0": "c1152b90b85665a1",
    "seq@0.05/6/1": "2143e797890f31c0",
    "seq@0.05/8/0": "1a6c560339806128",
    "seq@0.05/8/1": "b9485423fa26f8d7",
    "seq@0.1/2/0": "8a5b3e41627b3937",
    "seq@0.1/2/1": "b0ecc498d146ae45",
    "seq@0.1/3/0": "4a92142672c4962a",
    "seq@0.1/3/1": "405cc7ef5234f0d7",
    "seq@0.1/4/0": "5b989dd8f752c800",
    "seq@0.1/4/1": "f3689b146e48677f",
    "seq@0.1/6/0": "cb1a1a8a68ee434c",
    "seq@0.1/6/1": "eaa7d41fbb0a9fe7",
    "seq@0.1/8/0": "2e26e2c159047408",
    "seq@0.1/8/1": "2416a763e2ab328b",
    # spla
    "spla@0.05/2/0": "d216492860ddbe6a",
    "spla@0.05/2/1": "30421548ce913351",
    "spla@0.05/3/0": "1c25db27998623af",
    "spla@0.05/3/1": "8ee304080a976bee",
    "spla@0.05/4/0": "6291b979aed24142",
    "spla@0.05/4/1": "dcf78a5a00023fd8",
    "spla@0.05/6/0": "e59dc2e7065ab2aa",
    "spla@0.05/6/1": "f98554aa5fec4a81",
    "spla@0.05/8/0": "833769ba56a8b63a",
    "spla@0.05/8/1": "d8c40059ad7948c4",
    "spla@0.1/2/0": "656beda398e72e58",
    "spla@0.1/2/1": "89709a941bb82df5",
    "spla@0.1/3/0": "dcab74a424ab6037",
    "spla@0.1/3/1": "90753bc435fa075c",
    "spla@0.1/4/0": "ff2efeb513d68727",
    "spla@0.1/4/1": "1644a25be01dd95a",
    "spla@0.1/6/0": "ab526ade20e6186e",
    "spla@0.1/6/1": "ed1b8421700ea8fe",
    "spla@0.1/8/0": "e92c42d39391d1eb",
    "spla@0.1/8/1": "8da25c6c428cadf7",
    # ex1010
    "ex1010@0.05/2/0": "ac74bfbffd0b02df",
    "ex1010@0.05/2/1": "f2627bd13ac24c22",
    "ex1010@0.05/3/0": "42b96aa45c9d8aac",
    "ex1010@0.05/3/1": "bb26662d14b83bb7",
    "ex1010@0.05/4/0": "a9b5e2b6c5becbaa",
    "ex1010@0.05/4/1": "b40fb0002d392a17",
    "ex1010@0.05/6/0": "636ca18fbbeb188b",
    "ex1010@0.05/6/1": "b8fdf7986022d235",
    "ex1010@0.05/8/0": "a272ce3848e3e97a",
    "ex1010@0.05/8/1": "c282b4e78a00eb3b",
    "ex1010@0.1/2/0": "833689f55acaec97",
    "ex1010@0.1/2/1": "51320ecc376fb55f",
    "ex1010@0.1/3/0": "6ff0d4581c1de1de",
    "ex1010@0.1/3/1": "eb5cb005ce2659b7",
    "ex1010@0.1/4/0": "35acd4d7ddfd4533",
    "ex1010@0.1/4/1": "ef8da6145b2fcd43",
    "ex1010@0.1/6/0": "43594df5d9eb55e8",
    "ex1010@0.1/6/1": "10bd2d39d671bf52",
    "ex1010@0.1/8/0": "1358308dd26d0d69",
    "ex1010@0.1/8/1": "4da6ffb79f4fcde6",
}


def case_digest(graph, nblocks: int, seed: int) -> str:
    meter = CostMeter()
    mincut = multiway_partition(graph, nblocks, seed=seed, meter=meter)
    rnd = random_partition(graph, nblocks, seed=seed)
    blob = json.dumps(
        [mincut, rnd, cut_size(graph, mincut), cut_size(graph, rnd), meter.counts],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(MCNC_SUITE))
def test_partitions_pinned(name):
    got = {}
    for scale in SCALES:
        graph = circuit_graph(make_circuit(name, scale))
        for nblocks in BLOCKS:
            for seed in SEEDS:
                got[f"{name}@{scale}/{nblocks}/{seed}"] = case_digest(
                    graph, nblocks, seed
                )
    assert got == {k: v for k, v in PINS.items() if k.startswith(name + "@")}
