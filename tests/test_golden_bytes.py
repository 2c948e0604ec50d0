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
            "moments.csv": "a1bf7abecd6937f1bf8a78e27a3ed79fae738efc3df83e92113035415c20b429",
            "moments.json": "97f0732745d853c58a9da01221a9cb9bcbb666642fcd27599a5a0b2274fb2e78",
        },
    ),
    "monte_carlo_ghz3": (
        "moments --state ghz:3 --subset all --orders 2,4 --samples 5000 --seed 3 --format csv",
        {
            "moments.csv": "676b84cbb05b0b99c16eb6bdba70e6e4b1457b8231d02d9d28024555af8f223e",
            "moments.json": "210055d51f488da3b8660aa6b75475452dca68c4a54d8aaec003d3f08573a833",
        },
    ),
    "monte_carlo_w5": (
        "moments --state w:5 --orders 2,4 --samples 3000 --seed 1 --format csv",
        {
            "moments.csv": "cfc1d7ee2c08b848272eae26f1801470bb20daae3c780da3f8f228a2b7263b3b",
            "moments.json": "8c186a330967321de5ca65c655f39070d57d7c68962cfe441cb1919b13853ae9",
        },
    ),
    "bootstrap_w4": (
        "moments --state w:4 --subset 1,2 --orders 2,4 --samples 4000 --seed 4 --bootstrap",
        {
            "moments.json": "73aeb7ac8756335db1086474426b3186a431af430428cb076e6f679ace3b9cb1",
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
