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
    "design_sums_w4": (
        "moments --state w:4 --subset all --orders 2,4 --design 5 --format csv",
        {
            "moments.csv": "98dbb3590cca292f4d6db7e64e3b1efe8904d9b07105e6d61933d97f805eb3b0",
            "moments.json": "7a51227b344e3d33ef519abdf57e1ff11dc0e7efebcee7f683299d10bd886aa9",
        },
    ),
    "design_sums_w5_odd": (
        "moments --state w:5 --subset all --orders 2,3,4,5 --design 5 --format csv",
        {
            "moments.csv": "23d967485253f69da20d329ca8bb4d7cd5ff733aa480c6b923faa3ef79e88c75",
            "moments.json": "b68ab415fa4816dab0a92dc224d66ec0f8096aec335ed6a3e725582060758e2a",
        },
    ),
    "monte_carlo_ghz3_odd": (
        "moments --state ghz:3 --orders 1,3 --samples 2000 --seed 6 --format csv",
        {
            "moments.csv": "1ff9a36b4f5db4e479b0fd0184baa3e9c79adfee6245690e0b6ca27bee59f78e",
            "moments.json": "7998fa1315dc9cbbe17164f6218a82b302f5fc4f7a7254842174e8cc038fa3bd",
        },
    ),
    "monte_carlo_ghz3": (
        "moments --state ghz:3 --subset all --orders 2,4 --samples 5000 --seed 3 --format csv",
        {
            "moments.csv": "5faa52e23dcbda522c863ed08220ba68d3000e42d12bf7107ad45f8a0d25ef01",
            "moments.json": "d1852bad6ebc711a556329c32ff2075290a7300e2a137170d6f15a6193dea860",
        },
    ),
    "monte_carlo_w5": (
        "moments --state w:5 --orders 2,4 --samples 3000 --seed 1 --format csv",
        {
            "moments.csv": "5ea7f2274e822ec58de043b95c3689ddeb514d1bc53a396a2abb2970ab7b4823",
            "moments.json": "fd7cb57c3bc9afa11545d6b1148baa34e3d5376f52d0e42cb6606e4f90e87860",
        },
    ),
    "bootstrap_w4": (
        "moments --state w:4 --subset 1,2 --orders 2,4 --samples 4000 --seed 4 --bootstrap",
        {
            "moments.json": "73aeb7ac8756335db1086474426b3186a431af430428cb076e6f679ace3b9cb1",
        },
    ),
    "bootstrap_w4_all": (
        "moments --state w:4 --subset all --orders 2,4 --samples 2000 --seed 8 --bootstrap",
        {
            "moments.json": "0ba03c1ff9806815716b3ef90fbd679c26bdd1a3ab9781ac29cdfc163b1e48d8",
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
    "structure_trisep4": (
        "criteria --state trisep4 --structure",
        {
            "criteria.json": "a8be4ac26e1d108fd5f5f35759a111c9d35b09d853a4917dab4bc82b02fc9122",
        },
    ),
    "bisep3_product_zero3": (
        "criteria --state product_zero:3 --test bisep3",
        {
            "criteria.json": "242decfafbdd045ef417ec8e22a233debbb8f86c1824adb22f6f7a36c0c8d9f7",
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
