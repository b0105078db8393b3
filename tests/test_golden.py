"""Byte-level pins of CLI outputs that the other tests check only in part.

Each case runs one command in process, with every output file written under
a temporary directory, and compares the sha256 of stdout and of each file
with a pinned digest.  Any change to a byte of JSON, CSV, DOT or text output
fails here.  The ``verify-theorems`` and ``conjecture --reading both`` cases
also run with two workers, against the same digests.
"""

import hashlib

import pytest

from somborlab.cli import run

# name -> (argv, {"stdout" or output flag: sha256 of what it receives})
GOLDEN = {
    "verify-2..8": (
        ["verify-theorems", "--n", "2..8"],
        {
            "stdout": "423ff178abe90fd725ce17946ce90ff2f66c62674cd4d26b6bd5678b8f8fae33",
            "--json": "ad9cd1e54b3deafb5ba5c376493879b8ca0cc19ef431c12b3a977681e22568ab",
            "--csv": "ace50d26d6a866ecc8a56046a26c532426d74c4ca8d358eecb4cf3c0fbf5b14e",
        },
    ),
    "conjecture-5..9-both": (
        ["conjecture", "--n", "5..9"],
        {
            "stdout": "b3c08dc85a510e71d0d0b95165ec0e3f0466d9bfd37d2645068ee20ef900dfe2",
            "--json": "b59598c47f752b1b54509e4f016b0f95ab7cb09015ec6ce800b1b3119a5ecc4b",
            "--csv": "8168824302ce76491d673ef07c81a15ea845ceadcb844e440d53429e8ad94580",
        },
    ),
    "conjecture-5..9-corrected": (
        ["conjecture", "--n", "5..9", "--reading", "corrected"],
        {"stdout": "ee271b03a6a4132e48d4eb91b5c279a5b30280df3870093c340b6e1291207578"},
    ),
    "conjecture-5..9-literal": (
        ["conjecture", "--n", "5..9", "--reading", "literal"],
        {"stdout": "68eb00e22ef618db6d4b3c760c19be55eb0f063ebbc40ba5d465d4a882910eda"},
    ),
    "index-family": (
        ["index", "--family", "X", "--n", "7"],
        {
            "stdout": "242bc820497b322414e6660dcd7e6dac7e273c883397b9f69dbcdc3ab94b9221",
            "--json": "84b0228c6617fe22faa4d7d10309422193634d0e9a4c3f837b04f51d4e331b48",
        },
    ),
    "index-recipe": (
        ["index", "--recipe", "0,1,2,3"],
        {
            "stdout": "9ba146a02adf9ecae8d66bbaae60fab19f8dff542ae88b9c22fb474532a016f7",
            "--json": "a18d0a496619b45a0dbf2af29adae54a54b34b4bff93ed6162509a1fd575e412",
        },
    ),
    "index-g6": (
        ["index", "--g6", "DL{"],
        {
            "stdout": "a637047280f0c8eb7afee130b2aff927091b8a12da6dedc20b8aa48ff80def57",
            "--json": "da86127b4f96c2dafbb07fe82566d60c1d307b8d3d46d6a957d4877718939b0b",
        },
    ),
    "index-random-recipe": (
        ["index", "--random-recipe", "12", "--seed", "3"],
        {
            "stdout": "84e6e663feef41c86a5d5eb4b7993dd7a019d12cd11c0b07417d1e0a4c74df38",
            "--json": "6cdca06ad99e76b713bfdbd28cc0336618457bb93e3a8553c3206205d443ef4a",
        },
    ),
    "check-lemmas": (
        ["check-lemmas"],
        {
            "stdout": "4edd7f86cbee9eedc42f05f89fc78a2506a90029936ea14ae2669e6c2fc28fbb",
            "--csv": "8ad0e043d26ff8bbfc0c93f1877e7126cd4296dfe354d2a67e29b4ef9d2eea67",
        },
    ),
    "enumerate-json": (
        ["enumerate", "--n", "8", "--format", "json"],
        {
            "stdout": "f9b2d91db6dfcbf1f9d929c1dcf155082ac85154faf845fd8ae37f76906a1674",
            "--manifest": "f9b2d91db6dfcbf1f9d929c1dcf155082ac85154faf845fd8ae37f76906a1674",
        },
    ),
    "export-dot": (
        ["export", "--family", "L", "--n", "7", "--format", "dot"],
        {"stdout": "fef2a10a38461bcd930b81f04ea5c7faa432e3acf4355efa42ec967b2334db64"},
    ),
}


POOLED = ("verify-2..8", "conjecture-5..9-both")
CASES = [pytest.param(name, 1, id=name) for name in sorted(GOLDEN)] + [
    pytest.param(name, 2, id=f"{name}-workers-2") for name in POOLED
]


@pytest.mark.parametrize("name, workers", CASES)
def test_golden_output(name, workers, tmp_path, capsys):
    argv, pins = GOLDEN[name]
    if workers > 1:  # the other commands take no --workers
        argv = argv + ["--workers", str(workers)]
    paths = {flag: tmp_path / flag.lstrip("-") for flag in pins if flag != "stdout"}
    for flag, path in paths.items():
        argv = argv + [flag, str(path)]
    assert run(argv) == 0
    got = {"stdout": capsys.readouterr().out.encode("utf-8")}
    got.update((flag, path.read_bytes()) for flag, path in paths.items())
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == pins


# Orders 5..13 of `conjecture`, pinned from a full exact ranking of every
# order, which the bound-pruned extremes must reproduce byte for byte.
CONJECTURE_13 = {
    "--output": "9b69a580d027999310f9e45ea216d65885208a62c8cfb065f67339e52e538a62",
    "--json": "e4de2c50a05916446264f7f4aabe3adfdc68e0166e39afae4aab00050dbbc1f2",
    "--csv": "38fd25baa27122de427ac8eef836a201e24b2fa4c273d9d6f064055e4f6eaa91",
}


@pytest.mark.slow
def test_conjecture_to_order_13_digests(tmp_path):
    argv = ["conjecture", "--n", "5..13", "--cap", "13", "--workers", "2", "--reading", "both"]
    paths = {flag: tmp_path / flag.lstrip("-") for flag in CONJECTURE_13}
    for flag, path in paths.items():
        argv += [flag, str(path)]
    assert run(argv) == 0
    assert {flag: hashlib.sha256(path.read_bytes()).hexdigest()
            for flag, path in paths.items()} == CONJECTURE_13


# Orders 5..13 of `verify-theorems`, the full ranking of every order included.
VERIFY_13 = {
    "stdout": "c1ec37ca47f5f9b5459d3cdbda2e16dad5f9c2f13d27e98e504bb1f0b418acc5",
    "--json": "17a505ed71c3f8a58e751ebab14a279c2065077df7bfba0c30fd09134a0941a6",
    "--csv": "6c6da9ac1b6538580b74a051f1f23f7210553715f115f39f3392308c15ac772b",
}


@pytest.mark.slow
def test_verify_to_order_13_digests(tmp_path, capsys):
    argv = ["verify-theorems", "--n", "5..13", "--cap", "13", "--workers", "2"]
    paths = {flag: tmp_path / flag.lstrip("-") for flag in VERIFY_13 if flag != "stdout"}
    for flag, path in paths.items():
        argv += [flag, str(path)]
    assert run(argv) == 0
    got = {"stdout": capsys.readouterr().out.encode("utf-8")}
    got.update((flag, path.read_bytes()) for flag, path in paths.items())
    assert {flag: hashlib.sha256(data).hexdigest() for flag, data in got.items()} == VERIFY_13


# Order 14 of `conjecture`, past the order-13 pins above, from the bound-pruned
# search as it stands; a change to that search must keep these bytes.
CONJECTURE_14 = {
    "stdout": "0c27753be9ec7e36d0888687595b4be3608434a66ee271450a3ffb736f207776",
    "--json": "2780a270dfaa4fb77172e4e74557f649a939344470050bf929fec08775805eb9",
    "--csv": "9c03f9dfe420d1770a0e74d55e157562418af13cfe7f1ad722061f76c492744a",
}


@pytest.mark.slow
def test_conjecture_at_order_14_digests(tmp_path, capsys):
    argv = ["conjecture", "--n", "14", "--cap", "14", "--workers", "2"]
    paths = {flag: tmp_path / flag.lstrip("-") for flag in CONJECTURE_14 if flag != "stdout"}
    for flag, path in paths.items():
        argv += [flag, str(path)]
    assert run(argv) == 0
    got = {"stdout": capsys.readouterr().out.encode("utf-8")}
    got.update((flag, path.read_bytes()) for flag, path in paths.items())
    assert {flag: hashlib.sha256(data).hexdigest() for flag, data in got.items()} == CONJECTURE_14
