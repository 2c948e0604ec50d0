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
            "histogram.csv": "690487622505109024ebd5ff58d5312e083843d9cc8b715c5bfb07f57bf9e02d",
            "sample.json": "d32825aa592c5ed5f3761ebf2ed8e1d1cbb175f2acb57e2454d77ce0cd01b61a",
            "samples.csv": "4a2c6b098481128811c5f5637cc38db3bad61891adac511f50922e7d5378e8a7",
        },
    ),
    "sample_w5_subset": (
        "sample --state w:5 --subset 2,4 --samples 2000 --seed 4",
        {
            "histogram.csv": "00ad6be938685a57471f1f4d1fa04269116e284236aa8b3c94f9bac8f3122f94",
            "sample.json": "e4975bb3b16e7765bd510ac42a6f8d9829aac47d08e869c5837bc1292aca7f2c",
            "samples.csv": "9939dcec0893d566e5264a1c29b9a3a9eedb3b001d9088298ceb70bc55d8b58a",
        },
    ),
    "sample_w4_single": (
        "sample --state w:4 --subset 1 --samples 2000 --seed 3",
        {
            "histogram.csv": "e7edbd9e9005d094e81e728d0ddca33c730b6e525496c0e0c48154b5e8eda441",
            "sample.json": "764af467ead29c0f4129a54285763bb3e8b9abd607f9eee2d26ffa3b5718c1b0",
            "samples.csv": "52232ae2f60a3ee846a751b7a00c835363c623e664244f9901bdd328044f94ce",
        },
    ),
    "sample_ghz4": (
        "sample --state ghz:4 --samples 2000 --seed 5",
        {
            "histogram.csv": "acca36b858a7582528f281430161f2b2eccb8622ec7ef168d95a7b5ed42066b4",
            "sample.json": "8c582fbfe0d56d043ec34013b1880c58fe5da3b819fe60a49817ebf8bdf93095",
            "samples.csv": "d3a5e779404dab95d64a8a9fb37153b3262980b5fd3fafc9264d1b405229f3a7",
        },
    ),
    "sample_w8": (
        "sample --state w:8 --samples 3000 --seed 2",
        {
            "histogram.csv": "39c3238fc650e8515dd9c0986275757e6f3cfe39ed434cefb0afcf067f8b1959",
            "sample.json": "20306c9caa6b89f0e52ab2edd4d4a04deeea50d05d78cf17197c79e2eba07ce2",
            "samples.csv": "32a5cc6ce7a12620821d75707b9e4a172b63f16bc33933c6421367c113d84bec",
        },
    ),
    # seven parties and a short last block: the values of a contraction
    # whose row count once set bits that moved with the BLAS thread count
    "sample_w8_subset7": (
        "sample --state w:8 --subset 1,2,3,4,5,6,7 --samples 30001 --seed 0",
        {
            "histogram.csv": "e0111c375347ec490701df12b0df30b920651bfd5a364b8a13ce0b0a2dc51df6",
            "sample.json": "417236d9928686e9b9d9664dad72de4aee3b82157f0dc18f912587c1060b097b",
            "samples.csv": "fc713004bfa220afdc8947bd03d62652bb3e2572dbd32a76851124fa91337ff7",
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
            "moments.csv": "b497310d5da1b1cf1fd01191e2bfcdb28a037a8fe064ed4368465dd03cdd2efe",
            "moments.json": "26e41d183c1a191f037eba6594d71917d53a946161f34560873025439d8f54da",
        },
    ),
    "monte_carlo_ghz3_odd": (
        "moments --state ghz:3 --orders 1,3 --samples 2000 --seed 6 --format csv",
        {
            "moments.csv": "19e62596dfc43efc1a64258f4b642cadb0f923316907797b7416008474791673",
            "moments.json": "e68ad4030fbceb949d20c2e8dca278b2d7ea8b702ba4068acf3fc4dacfdeb7a6",
        },
    ),
    "monte_carlo_ghz3": (
        "moments --state ghz:3 --subset all --orders 2,4 --samples 5000 --seed 3 --format csv",
        {
            "moments.csv": "247e1060e0fc1a2b6449f7b45906e09f83114a83cdd3606a42275cd0e0f54164",
            "moments.json": "114158434424da8b24ef9653c346972b4cc52f6ae8af8ac68a7e6b07b8fe6611",
        },
    ),
    "monte_carlo_w5": (
        "moments --state w:5 --orders 2,4 --samples 3000 --seed 1 --format csv",
        {
            "moments.csv": "a7a938746e48cdf0ce0986061d8bbe0db25b049b42ce170fbcf3a7bf1ba72a69",
            "moments.json": "6d955e8d1c6400448ff2c9b6e5a608ad2903a4f20b7dcb1f224d30fdf1b618d3",
        },
    ),
    # A marginal subset of a larger state: its settings table spans only
    # the requested parties, so it is the (M, 2, 3) draw of its own.
    "monte_carlo_w5_subset": (
        "moments --state w:5 --subset 2,4 --orders 2,4 --samples 3000 --seed 4 --format csv",
        {
            "moments.csv": "f2fa48cf3a9049a34194574d23922dae98b7f390b2ff284bd7149c5083651bb6",
            "moments.json": "87d5d269d00b051c99f1c1b43495c978b295cde918aff1b545195bb291daac3c",
        },
    ),
    # t = 6 has no exact oracle, so its cross-check entry says unchecked.
    "monte_carlo_bell_unchecked_t6": (
        "moments --state bell --orders 2,6 --samples 200 --seed 3",
        {
            "moments.json": "3a4a30388aaf78305e1ef69f59731ba66813f7121d9d05dec21f0236c1be52b1",
        },
    ),
    "bootstrap_w4": (
        "moments --state w:4 --subset 1,2 --orders 2,4 --samples 4000 --seed 4 --bootstrap",
        {
            "moments.json": "7d3c4eacdeace494598c24046fd350373b815b8ac00cc2b7e3cfb54eadc82125",
        },
    ),
    "bootstrap_w4_all": (
        "moments --state w:4 --subset all --orders 2,4 --samples 2000 --seed 8 --bootstrap",
        {
            "moments.json": "98e693675e2d3aa05ec8bf98e09a0bfec69fd34623b5813a664a885fe947184f",
        },
    ),
    "shots_ghz3": (
        "moments --state ghz:3 --subset all --orders 2,4 --samples 500 --shots 5 --seed 9",
        {
            "moments.json": "473fed41af56abfed41f9b6b365b19bcf1515495a23dcd55e37909770c07cf74",
        },
    ),
    "shots_ghz4_subset": (
        "moments --state ghz:4 --subset 2,3 --orders 2,4 --samples 500 --shots 5 --seed 9",
        {
            "moments.json": "1946c454018283a81ec235d80617e81080ab3f5216b40d370a818e90ddabcc43",
        },
    ),
    "shots_ghz4_full": (
        "moments --state ghz:4 --subset full --orders 2,4 --samples 500 --shots 5 --seed 9",
        {
            "moments.json": "81b9e9bd68093960ecbaf2113356fbcafdb5f7efe39e5aa2f1fc2b4abc9b6e95",
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
            "moments.json": "b2449aad8abb3517e3be6cfed201c51a41a673aea99c063be0c235bb818a3975",
        },
    ),
    "shots_ghz8_blocks": (
        "moments --state ghz:8 --orders 2,4 --samples 40 --shots 20 --seed 11",
        {
            "moments.json": "6962444be6d92c690392feceb71cd336ac3bef2608dfe1cee7c6f3bfd37050cc",
        },
    ),
    # A mixed state, whose shots come from the Pauli coefficients, and a W
    # state, whose amplitude pattern no GHZ golden has.
    "shots_werner_all": (
        "moments --state werner:0.6 --subset all --orders 2,4 --samples 4000 --shots 10 --seed 5",
        {
            "moments.json": "8310d9982b1b89390170f62fddb3812007ef80be61c245056ae0094361f46354",
        },
    ),
    "shots_w6_all": (
        "moments --state w:6 --subset all --orders 2,4 --samples 2000 --shots 10 --seed 6",
        {
            "moments.json": "e3463863ff528d8665f116f348d0b4c4a71bfbb4ef1b46e8a65733c6b80dc404",
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
            "histogram.csv": "3243c0aab1a147b63eb64376778ef5e8664921bdd8c7ba50a2fdd446771266c7",
            "sample.json": "ab38cd506e200ff852f793e2c08c6c86fb8923aa079100a106bd47f27b664219",
            "samples.csv": "1c34af96d635e099b4b5a2cad524ca82055e55ea2dabc7d319dcb264a6ecffc9",
        },
    ),
    "sample_werner_density": (
        "sample --state werner:0.3 --samples 500 --seed 1",
        {
            "density.csv": "5a41dfae1888f1a8cb3b29f13c54ba18174ddac6151af4da1f46f755df3d0b7f",
            "histogram.csv": "447cf971396408f82b63faeb4245ba98ab14b473dfd0338682f5420e1c8cd29d",
            "sample.json": "a239251f033224aad765fb685ba972242587779cfcc8cd7a2b42640da1439c20",
            "samples.csv": "49596169cfca671ba523587ac898c37ed5ba0461be392b191951e694d1c60f89",
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
            "histogram.csv": "c482a40a871addd23bf28833489259af0c90ca117d86c545bc844147c35ed828",
            "sample.json": "2e0078eb58ece6f149d37359463ae930b4bc3969123ea1dd97a65aedbc8b2068",
            "samples.csv": "4ea164b5e7f114dbe9c5c2c181700041053afa449b96e1f0fae6e8ce45ce968c",
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


#: Goldens whose bits pass through a BLAS product: the k >= 3 correlation
#: contraction or the 5-design grid (ROADMAP item 22).  All twelve move under
#: OpenBLAS's Sandybridge kernel (no FMA); sample_w8_subset7, and on some CPUs
#: sample_w8, under Haswell too.
#: Every other golden is marked kernel_free: no BLAS kernel may move its bits.
BLAS_BOUND = {
    "bisep3_w3", "bootstrap_w4_all", "design_sums_w4", "design_sums_w5_odd", "design_sums_w8", "monte_carlo_ghz3",
    "monte_carlo_ghz3_odd", "monte_carlo_w3_odd", "monte_carlo_w5", "sample_ghz4", "sample_w8", "sample_w8_subset7",
}


@pytest.mark.parametrize("name", [pytest.param(name, marks=() if name in BLAS_BOUND else pytest.mark.kernel_free)
                                  for name in sorted(GOLDEN)])
def test_cli_output_digests(name, tmp_path, monkeypatch):
    args, expected = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert main([*args.split(), "--output", "out"]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "out").iterdir())
    }
    assert digests == expected
