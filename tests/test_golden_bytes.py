"""Fixed-seed CLI runs must keep writing the same bytes.

Each command runs in a fresh directory with a relative ``--output`` (the
path is echoed in every JSON file), and the SHA-256 of every file it
writes is compared with the digest recorded when the outputs were last
known to be right.  A digest may change only with a named output break.
"""

import hashlib

import pytest

from randmeas.cli import main

GOLDEN = {
    "design3": (
        "design --order 3",
        {
            "design.csv": "75335361843fc907645aa35a752634165bec18a2f4683d9f09660104358e6ca1",
            "design_validation.json": "c3ca9d5dcb2406b1537f37164e971cf28da6a03e24f54e5530d695c391abbd97",
        },
    ),
    "design5": (
        "design --order 5",
        {
            "design.csv": "c608c5502808f9bb830dd4bf31a2748341839e448f730a32fdd9102b4bf74c63",
            "design_validation.json": "6cc47bbf0ec71e1a9a197b60a193399bbf5f25917d55cee4cb2b6d19a539f8a5",
        },
    ),
    "sample_bell": (
        "sample --state bell --samples 2000 --seed 7",
        {
            "density.csv": "de9e2d894a158ed162db8e59f9cebc38bace3928fb4670a30c60a50785974cdc",
            "histogram.csv": "f7d2e535e3d152ea73a2768e86bbcc4620ff68ab0a63686274b1c839d9db7118",
            "sample.json": "d32825aa592c5ed5f3761ebf2ed8e1d1cbb175f2acb57e2454d77ce0cd01b61a",
            "samples.csv": "b8945e7462ef4dfb11319a313325802e2d27919868693f00888a1654007e4a39",
        },
    ),
    "sample_w5_subset": (
        "sample --state w:5 --subset 2,4 --samples 2000 --seed 4",
        {
            "histogram.csv": "2f90cf0a1fa31787809daa9b7dcc1c9c7e3959466849809305a141b45fafb265",
            "sample.json": "e4975bb3b16e7765bd510ac42a6f8d9829aac47d08e869c5837bc1292aca7f2c",
            "samples.csv": "578767a50dc38852078ea66f9a49ca94f8e943374d276490048ff672d6a1f3d7",
        },
    ),
    "sample_w4_single": (
        "sample --state w:4 --subset 1 --samples 2000 --seed 3",
        {
            "histogram.csv": "b087cbe4b5134fa3ee908e9853a512d439ed5a10046d39fe06019cdff23f5985",
            "sample.json": "764af467ead29c0f4129a54285763bb3e8b9abd607f9eee2d26ffa3b5718c1b0",
            "samples.csv": "fa576daf99e18dae584c616525fc0d4def9d3b97d8797ca0b18d5ce3b59739f9",
        },
    ),
    "sample_ghz4": (
        "sample --state ghz:4 --samples 2000 --seed 5",
        {
            "histogram.csv": "9dd91886420fc2edb61de8139871075d1bb31ff0791f255a0bf75ed297a0d7ba",
            "sample.json": "8c582fbfe0d56d043ec34013b1880c58fe5da3b819fe60a49817ebf8bdf93095",
            "samples.csv": "c6752b9ac2852afaa6b50b0a521c7d5e04b5fe813e4aab339b6265aebcfe1e7c",
        },
    ),
    "sample_w8": (
        "sample --state w:8 --samples 3000 --seed 2",
        {
            "histogram.csv": "bac88259b818e8a9b4a4056a7e923dce3ee4d28f7343869666838dbeb7a715a2",
            "sample.json": "20306c9caa6b89f0e52ab2edd4d4a04deeea50d05d78cf17197c79e2eba07ce2",
            "samples.csv": "e8b749dccca380237fadae4fb54dd34c920cc7399dbead728982567239e6cfaf",
        },
    ),
    # seven parties and a short last block: the values of a contraction
    # whose row count once set bits that moved with the BLAS thread count
    "sample_w8_subset7": (
        "sample --state w:8 --subset 1,2,3,4,5,6,7 --samples 30001 --seed 0",
        {
            "histogram.csv": "5ebdec1747e1675a2538797825e83276aea5a8e2e49d6758da90214cf94b8629",
            "sample.json": "417236d9928686e9b9d9664dad72de4aee3b82157f0dc18f912587c1060b097b",
            "samples.csv": "777263127b3f7a9963291ece11e1456a49c61af899c05ae90cf8ce4aca73feab",
        },
    ),
    "design_sums_w4": (
        "moments --state w:4 --subset all --orders 2,4 --design 5 --format csv",
        {
            "moments.csv": "1b27862d5cf3a5644242e94ec5b3082765756668e5f4919815f22bb3293159b4",
            "moments.json": "acff2cb17691957939bf95bc79dd46eeb5d88ca92aef15d8207cfcf178c51cd3",
        },
    ),
    "design_sums_w5_odd": (
        "moments --state w:5 --subset all --orders 2,3,4,5 --design 5 --format csv",
        {
            "moments.csv": "3c9247b278e289e0fce07bd775431bc20ac1302cc9fd30de4668a64c17f08089",
            "moments.json": "9b80a9ada927307f69dd5ada464d25921053073ad4bd60ae2fc049a43162515e",
        },
    ),
    "design_sums_w8": (
        "moments --state w:8 --subset all --orders 2,4 --design 5 --format csv",
        {
            "moments.csv": "fcf46fb1246e6075a15784e6c15b942d7404a0db9f6b1040e5baff6812afa36b",
            "moments.json": "c82ccfb660970bb90c159e1eff90f93da1fbb627081bdd5da1316188108188fd",
        },
    ),
    "design3_sums_w4_odd": (
        "moments --state w:4 --subset all --orders 1,2,3 --design 3 --format csv",
        {
            "moments.csv": "5fd71b176bcfe64cd795814cbb244f5c2a9381da2abc38ce9471cd59ec5df12f",
            "moments.json": "2a325f7c61ae18ff424892101f949f22a8a5f3bd954e8c5d7ca149b09bc0b321",
        },
    ),
    "design_sums_werner_odd": (
        "moments --state werner:0.3 --orders 1,2,3,4,5 --design 5 --format csv",
        {
            "moments.csv": "3cfe6d35aac27730a6f690574f6eb4ce7cd94f54e5c5b33f066b1a3770ff7c29",
            "moments.json": "2ba174f5b7c9aa0586f045cfb06828caf61c3b6a09d50529d167ca4a0c44c4b9",
        },
    ),
    "monte_carlo_w3_odd": (
        "moments --state w:3 --subset all --orders 1,2,3,5 --samples 2000 --seed 2 --format csv",
        {
            "moments.csv": "255c8f459edc84bb02b40c79d05d691a1f7800629f59d1a97d8a4920300b2d19",
            "moments.json": "446d9ac27fd13ac90c6a00f7de18ef0e1ad608c042a8d975b804290f9b9fa1ba",
        },
    ),
    "monte_carlo_ghz3_odd": (
        "moments --state ghz:3 --orders 1,3 --samples 2000 --seed 6 --format csv",
        {
            "moments.csv": "1ff9a36b4f5db4e479b0fd0184baa3e9c79adfee6245690e0b6ca27bee59f78e",
            "moments.json": "9315de3cc380828a9db3868ddfe3a3c529655247704585c7e71b090f0f117a2e",
        },
    ),
    "monte_carlo_ghz3": (
        "moments --state ghz:3 --subset all --orders 2,4 --samples 5000 --seed 3 --format csv",
        {
            "moments.csv": "87bfe369a40c6b696c88c7f7457b3cd88139f1239a98fc9b7183ee442ab4d0f9",
            "moments.json": "fbd7eb89d3baf815c2ceb4da7ab52f2a1ef7693e1d7c3ef3156162690e12f845",
        },
    ),
    "monte_carlo_w5": (
        "moments --state w:5 --orders 2,4 --samples 3000 --seed 1 --format csv",
        {
            "moments.csv": "5ea7f2274e822ec58de043b95c3689ddeb514d1bc53a396a2abb2970ab7b4823",
            "moments.json": "fd7cb57c3bc9afa11545d6b1148baa34e3d5376f52d0e42cb6606e4f90e87860",
        },
    ),
    # A marginal subset of a larger state: its settings table spans only
    # the requested parties, so it is the (M, 2, 3) draw of its own.
    "monte_carlo_w5_subset": (
        "moments --state w:5 --subset 2,4 --orders 2,4 --samples 3000 --seed 4 --format csv",
        {
            "moments.csv": "74e18aa1ab3e4748d8fa928b2e8d89784fc69c16de6281290234595bbea4c3ff",
            "moments.json": "15d2be8ee7a2ca9d7973ed6f56730dfb8517bdaf1cd11c069c994a771307a34c",
        },
    ),
    # t = 6 has no exact oracle, so its cross-check entry says unchecked.
    "monte_carlo_bell_unchecked_t6": (
        "moments --state bell --orders 2,6 --samples 200 --seed 3",
        {
            "moments.json": "77c99668faef8cf7b69e5896ca1a771cb48f7b55b9fe07405d98b2ccf5e4718a",
        },
    ),
    "bootstrap_w4": (
        "moments --state w:4 --subset 1,2 --orders 2,4 --samples 4000 --seed 4 --bootstrap",
        {
            "moments.json": "5b151b1a19ba773374b5aa50d5561a9320fc3cccf72118098d75431ff5ee52e6",
        },
    ),
    "bootstrap_w4_all": (
        "moments --state w:4 --subset all --orders 2,4 --samples 2000 --seed 8 --bootstrap",
        {
            "moments.json": "ee9c740180b742a0e28a69b83d1d45cd303121e76d0be153edd2f60bcc4b404f",
        },
    ),
    "shots_ghz3": (
        "moments --state ghz:3 --subset all --orders 2,4 --samples 500 --shots 5 --seed 9",
        {
            "moments.json": "4e19894ddd6629883b9babfeb3760cae32d716ab84dd7d3b819a9969f4716c95",
        },
    ),
    "shots_ghz4_subset": (
        "moments --state ghz:4 --subset 2,3 --orders 2,4 --samples 500 --shots 5 --seed 9",
        {
            "moments.json": "9b8b3e9fb43dcbfa3d7104c36a5757878d0e8b6c045678889d32e62b9d51a881",
        },
    ),
    "shots_ghz4_full": (
        "moments --state ghz:4 --subset full --orders 2,4 --samples 500 --shots 5 --seed 9",
        {
            "moments.json": "17f9310428f3ed420fa48f043afe2ae3adf455911fcf7d15f257082702e22c8d",
        },
    ),
    # Shot tables that span several of simulate_shots' blocks (8 at n = 3
    # and K = 50), so each block's draws must continue the one seeded
    # stream.  The n = 8 table spanned 4 blocks of the Pauli route; it fits
    # in one of the amplitude route, whose settings take 23 times fewer
    # bytes.
    "shots_w3_all_blocks": (
        "moments --state w:3 --subset all --orders 2,4 --samples 12000 --shots 50 --seed 11",
        {
            "moments.json": "5396f94c8d09fa1bc8accc1416c771b30d89d0f81fe5f3020dfd8d232b46f511",
        },
    ),
    "shots_ghz8_blocks": (
        "moments --state ghz:8 --orders 2,4 --samples 40 --shots 20 --seed 11",
        {
            "moments.json": "599bc6450534603a6e95e2f244073b70f4be2f16bc0a13ea9e5eb1c2e8f3f36d",
        },
    ),
    # A mixed state, whose shots come from the Pauli coefficients, and a W
    # state, whose amplitude pattern no GHZ golden has.
    "shots_werner_all": (
        "moments --state werner:0.6 --subset all --orders 2,4 --samples 4000 --shots 10 --seed 5",
        {
            "moments.json": "93dd6b4a3c645b08914ec2e8361dcb5f083c184d11f44ad4716b80217dcbdd20",
        },
    ),
    "shots_w6_all": (
        "moments --state w:6 --subset all --orders 2,4 --samples 2000 --shots 10 --seed 6",
        {
            "moments.json": "8ea3043a1b08f5674282da613e9a14728028020fecbabe09a6d2c524aabc83e7",
        },
    ),
    "bisep3_w3": (
        "criteria --state w:3 --test bisep3",
        {
            "criteria.json": "2a26e4070685842dca255ec1451c72673be54846ab52cd35b16d57ef2b9d8490",
        },
    ),
    "gme4_ghz4": (
        "criteria --state ghz:4 --test gme4",
        {
            "criteria.json": "784a75aa0ebc05c52cda5188db03c96afec5502e5dd246b37dd9879fface2580",
        },
    ),
    "gme4_cluster_linear": (
        "criteria --state cluster_linear --test gme4",
        {
            "criteria.json": "4f8eadcfe8e39da459771455cfe708f70ea6a2fd3b3982f878caa4e0f30723d9",
        },
    ),
    "wclass_w4": (
        "criteria --state w:4 --test wclass",
        {
            "criteria.json": "04291c66148cd82a2a83b20c248488cee434d55a1ab617bcf7da755ae6892a2d",
        },
    ),
    "length_w3": (
        "criteria --state w:3 --test length",
        {
            "criteria.json": "195596df0562faabeec48ca694a5f603af78751ee2a5864b3e9a7d87c4b23b00",
        },
    ),
    "sample_product2_density": (
        "sample --state product2 --samples 500 --seed 1",
        {
            "density.csv": "cdabe17b1b9722c072c86965c4650f6375a716618716470a7fc8e5b70c9d210b",
            "histogram.csv": "b2bae90695acf2d15cd9a8ad96ba1bb63eb96aad56de23b8deb710abfbbd22fa",
            "sample.json": "ab38cd506e200ff852f793e2c08c6c86fb8923aa079100a106bd47f27b664219",
            "samples.csv": "afce94cdc988b9a9ee2083d445e3705f23868dec8246cae0c84f2e4f19c85717",
        },
    ),
    "sample_werner_density": (
        "sample --state werner:0.3 --samples 500 --seed 1",
        {
            "density.csv": "5a41dfae1888f1a8cb3b29f13c54ba18174ddac6151af4da1f46f755df3d0b7f",
            "histogram.csv": "786c1d9b807383959479e49b2c56dfd0fb0e69a808b47c01e73746edc97fa28c",
            "sample.json": "a239251f033224aad765fb685ba972242587779cfcc8cd7a2b42640da1439c20",
            "samples.csv": "68036da1e02fca3854644e1af31c81d37615ee9bb9e7aa90f50d632cb9017680",
        },
    ),
    "sample_werner_zero": (
        "sample --state werner:0 --samples 2000 --seed 1",
        {
            "histogram.csv": "fa0d0c58a26107606de68876fef859efd0a44673d0228ad3be847acedca99bfd",
            "sample.json": "02839b207f6f400e20a8f58d943fed653f625dee1e70370a3778336a8887ce69",
            "samples.csv": "a1d60c70a4b38c4cc2d5212f8d6d07ad9242e348fbca2e34e4f287ca9be1d9be",
        },
    ),
    "sample_product2_exponents": (
        "sample --state product2 --samples 20000 --seed 2",
        {
            "density.csv": "cdabe17b1b9722c072c86965c4650f6375a716618716470a7fc8e5b70c9d210b",
            "histogram.csv": "5546f714252289085353b4b9d19c34f350995c748d740344be44df4ed91c33f8",
            "sample.json": "2e0078eb58ece6f149d37359463ae930b4bc3969123ea1dd97a65aedbc8b2068",
            "samples.csv": "78f050d364764268ee7689cb5cc0d69d95146a618fa9e596b90741a8a6fca4b1",
        },
    ),
    "structure_trisep4": (
        "criteria --state trisep4 --structure",
        {
            "criteria.json": "a8be4ac26e1d108fd5f5f35759a111c9d35b09d853a4917dab4bc82b02fc9122",
        },
    ),
    "bisep3_product_zero3": (
        "criteria --state product_zero:3 --test bisep3",
        {
            "criteria.json": "c912c3a417a7c259e9b10e2628bfac71b437aba0f8dfc63fdcf1d901dac263dc",
        },
    ),
    "wclass_ghz8": (
        "criteria --state ghz:8 --test wclass",
        {
            "criteria.json": "77b5b514f8cec59bc98532c54b62fd577a963d9451e9a63e81b51b411f6d18db",
        },
    ),
    "structure_bisep4": (
        "criteria --state bisep4:0.2 --test gme4 --structure",
        {
            "criteria.json": "81acdffc9c49195aa11ab3ea0511f3b0a89a1b96d966f514dbffd8109255c235",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_digests(name, tmp_path, monkeypatch):
    args, expected = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert main([*args.split(), "--output", "out"]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "out").iterdir())
    }
    assert digests == expected
