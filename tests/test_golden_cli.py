"""Golden CLI outputs: a fixed list of invocations, each run in-process
through `qyt.cli.main`, whose stdout must hash to a recorded value.

The suite timings (`ms`) are masked before hashing, so the hashes pin
every other byte of the output.  A change that is meant to keep the
output the same keeps this file as it is; a change that alters the
output on purpose records the new hashes and says why.

To print the current hashes:  PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import re

import pytest

from qyt.cli import main

FORMATS = ("text", "json", "csv")


def _each_format(*argv):
    return [(*argv, "--format", fmt) for fmt in FORMATS]


INVOCATIONS = [
    *_each_format("count", "--shape", "2,2,1", "--exact-entry", "3"),
    ("count", "--shape", "2,2,1", "--max-entry", "4"),
    ("count", "--shape", "2,2", "--ssyt", "3"),
    ("count", "--shape", "3,2", "--syt"),
    *_each_format("board", "--shape", "3,2"),
    ("board", "--shape", "3,2", "--plus-one"),
    *_each_format("board", "--shape", "2,2,1", "--hits"),
    *_each_format("board", "--shape", "3,2", "--q-hits"),
    ("board", "--shape", "3,3,2,1", "--plus-one", "--q-hits", "--format", "json"),
    ("board", "--shape", "3,3,2,1", "--plus-one", "--q-hits", "--format", "csv"),
    *_each_format("table", "a-coeffs", "--n", "6"),
    *_each_format("rsk", "45312"),
    *_each_format("rsk", "1,2,1,3,2"),
    *_each_format("expand", "schur", "--shape", "2,2", "--vars", "3"),
    ("expand", "schur", "--shape", "3,1,1"),
    *_each_format("expand", "schur", "--shape", "3,3,3,1", "--vars", "2"),
    *_each_format("expand", "schur", "--shape", "3,3,3,1", "--vars", "8"),
    *_each_format("expand", "genfun", "--n", "6"),
    *_each_format("expand", "genfun", "--n", "6", "--no-q"),
    ("verify", "hit", "--max-n", "5"),
    ("verify", "maj-hit", "--max-n", "4"),
    ("verify", "charge-hit", "--max-n", "4"),
    ("verify", "summation", "--max-n", "5"),
    ("verify", "lattice", "--max-n", "4", "--seed", "5"),
    ("verify", "genfun", "--max-n", "4"),
    ("verify", "gjw", "--max-n", "4"),
    ("verify", "foulkes", "--max-n", "5"),
    ("verify", "polya", "--max-n", "4"),
    ("verify", "jack", "--max-n", "5"),
    ("verify", "all"),
    ("verify", "all", "--max-n", "3", "--format", "json"),
    ("verify", "all", "--max-n", "3", "--format", "csv"),
]

GOLDEN = {
    "count --shape 2,2,1 --exact-entry 3 --format text":
        "1121cfccd5913f0a63fec40a6ffd44ea64f9dc135c66634ba001d10bcf4302a2",
    "count --shape 2,2,1 --exact-entry 3 --format json":
        "6bbd017360b4225846c2e9893301fecbf3cb6b4853dc76f7d9373997d8d4124a",
    "count --shape 2,2,1 --exact-entry 3 --format csv":
        "ffc63d951c1ba8884b6dacb6dc5f7cbaefd34558e4755659c3cc6e6da88e99e1",
    "count --shape 2,2,1 --max-entry 4":
        "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06",
    "count --shape 2,2 --ssyt 3":
        "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7",
    "count --shape 3,2 --syt":
        "f0b5c2c2211c8d67ed15e75e656c7862d086e9245420892a7de62cd9ec582a06",
    "board --shape 3,2 --format text":
        "726a76ebc0567ec866132d6b2680f94df6c5d1479ed87b93ca19ffa15d9d5ba0",
    "board --shape 3,2 --format json":
        "c269dcaed8289514a48dbeddc92c481e1d156d4424ca7c4c909688932386a02b",
    "board --shape 3,2 --format csv":
        "62a14a64860ec04b113af3d59a0673cdd1179740336aa9acea4fbb28061a4251",
    "board --shape 3,2 --plus-one":
        "f8caca6ab97dec6a9d6750494c76779d9f0d3ecedfea9bfda5fdca5c1b65ddcf",
    "board --shape 2,2,1 --hits --format text":
        "059ebb35ddb49c864b30b30cd473aa193bf561829562f74747a5b37a41b3758a",
    "board --shape 2,2,1 --hits --format json":
        "97c67958a76bc5ae90047bbfe86f63bf8fb3d02d665e8ebd2f9e0125ebaeabff",
    "board --shape 2,2,1 --hits --format csv":
        "33901422c3144b68742b9807bf2b5bf9b4e01a6c94f9217699757bba8295f02e",
    "board --shape 3,2 --q-hits --format text":
        "c6dfd8345b05f944f2007db6d2a088668ad1b634a1add1c1af782a23dacc749f",
    "board --shape 3,2 --q-hits --format json":
        "3de2cbf52c6daf66c976ff22955ecbf7734396bf699225f0b59d7a1401c07e98",
    "board --shape 3,2 --q-hits --format csv":
        "fe5c5d5902cacb8241bd8de965d2175cec9fb126d002b71a1f1f9ca292195d0c",
    "board --shape 3,3,2,1 --plus-one --q-hits --format json":
        "27c4d74bbd355cf3bf6ef6991d9a8522ac2acd60c3ebc5666e8e7d50c5de28c1",
    "board --shape 3,3,2,1 --plus-one --q-hits --format csv":
        "1eda98ccb0f1abd8932c952cb253b9e05535cd749de8e5edb1a2e4fa26557a36",
    "table a-coeffs --n 6 --format text":
        "e2ef74c2baf1b7b516d9cb71eabadc57a79b95b4ecc33d7fdfef5b45aa7dfa50",
    "table a-coeffs --n 6 --format json":
        "260d115e72231889c4c17464c9c3805299209449f24d1ff718f0762889ab760f",
    "table a-coeffs --n 6 --format csv":
        "9d16ad677effb571daa963c1a130934964739a692dd205abf0e15a18047957f8",
    "rsk 45312 --format text":
        "5dc5f116de78e55238b99372ddfb7ab08861521cbe78a146f007ad60d8dda55e",
    "rsk 45312 --format json":
        "8c16c7dc08af78d1ecc4a6234bdb3e2e50bc74e239f437ec3f47d485eb67e914",
    "rsk 45312 --format csv":
        "93b4beff9e9cfc3a8ed0cca4989f8cc1660368cdc294e6ce68be28c880eec3d5",
    # P is the insertion tableau and Q the recording one, as for a permutation
    "rsk 1,2,1,3,2 --format text":
        "094352aba99cdf594ba9cbcc4c4468ad4a2200d8ac84bbfbb91f53ccd7ac74dc",
    "rsk 1,2,1,3,2 --format json":
        "d64eab735407419b1f5be70967c0c700312b008cb12bc835d760fb5d02158851",
    "rsk 1,2,1,3,2 --format csv":
        "6e3752040d89a72b4a441f383b7c6432bab5128b5b61bd85ece22cb8272fb1b2",
    "expand schur --shape 2,2 --vars 3 --format text":
        "e0caf2442ef0fd17fc2c5f1052a5e814348ed4942da7e00890e5dbdb1ac9b9e6",
    "expand schur --shape 2,2 --vars 3 --format json":
        "927cd56f14f86e24bcd4de0c08d204fb342e4c82f15dcb87d59391daed3a776c",
    "expand schur --shape 2,2 --vars 3 --format csv":
        "3560397c4468e657d122dc534b6f471dfc9b3c16301b41fa8f3ed579c87ffc20",
    "expand schur --shape 3,1,1":
        "328aefd4fa5f8c2fecc731af3ef3ae18210d13888a502bbbdfbfd41d87e3fbf0",
    "expand schur --shape 3,3,3,1 --vars 2 --format text":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "expand schur --shape 3,3,3,1 --vars 2 --format json":
        "e6d0025b664394aff747bf98bf55f3ba6d5879e12a8f959e17061f5921fc4f09",
    "expand schur --shape 3,3,3,1 --vars 2 --format csv":
        "1940020c9b7fcef96b9384f00615fbc810030fb451b2824f8c6de0948175aa4c",
    "expand schur --shape 3,3,3,1 --vars 8 --format text":
        "93f4bfea2f19480f19c6673131249977d1c6e433de4242b38d07ec56d03d8fa6",
    "expand schur --shape 3,3,3,1 --vars 8 --format json":
        "628c38ac017a5a961ade0d246a3641adcae8b622f03a79bb78b10c492f533e16",
    "expand schur --shape 3,3,3,1 --vars 8 --format csv":
        "91100745b2ef8d5438a96a06f8efc64fc7d1905b0c6bcf51294cab4434928249",
    "expand genfun --n 6 --format text":
        "e261f8f1e31fe0b4a1571de255a24665ae29bc2a23facb0c0f0736ee8c39720a",
    "expand genfun --n 6 --format json":
        "0f09203d23f9cf1e3f4a9f20285065b17ff7dfaac08eab089db4d310cfa3b9b2",
    "expand genfun --n 6 --format csv":
        "c33b6e002733daa9a0b528634251f4f7a0fdd90cd135f3f9c92dc97df3d77ad3",
    "expand genfun --n 6 --no-q --format text":
        "8eaec44d5e08a08ac042ee71e77efdcd608905e622a31985a19f36db96541718",
    "expand genfun --n 6 --no-q --format json":
        "4a40f139a4baec1b80fbaf1b02cd418a0f7dbea93003f45c4681525e051e2470",
    "expand genfun --n 6 --no-q --format csv":
        "a91120e54c97a97425a0719164745ffefa593b02bbf6848bb54f7bb5410136c1",
    "verify hit --max-n 5":
        "e57e450a1630a3f1add880d57b2f873237d55e998e36b54a6dfac5f2861ecf6c",
    "verify maj-hit --max-n 4":
        "d2ffe305247c6753aeaae69102d4863f48c5d5903b685fe624ac34e203e04b9d",
    "verify charge-hit --max-n 4":
        "63193e5d2d794f4dbb9faff81d46abba426efe8b643dd3073760dc0735c73b4c",
    "verify summation --max-n 5":
        "9fdbc12b8b6489c8742748707e4dc9bcb0dc8a7fdea225ab3683444493f8fdc1",
    "verify lattice --max-n 4 --seed 5":
        "d459ac94db42efd306a9aba97abb5f9c480a0665d6340c74c222afac4ead8270",
    "verify genfun --max-n 4":
        "c59771b40a800e57eb7a09ea9ec84a9a079f3f176731a6ae2b8a2d563916517c",
    "verify gjw --max-n 4":
        "d33da2fcbe2bc0d6e705cbbccd6f26db991f4ba23be0481b859352434f2d302a",
    "verify foulkes --max-n 5":
        "c7ffd4c7569b03210a4e13d8e4175fcf6b284dc9f123b06e2b8ca84f4e4f3009",
    "verify polya --max-n 4":
        "3d503a8a78c3fbdfbf9ee6b98fd60e53b942deba028c807b0e5e98fe77360e72",
    "verify jack --max-n 5":
        "cb04e2e13d5cabee3c37f9515022f37531296726885cc8933fd9bd9c76a73f57",
    "verify all":
        "6682ef655f2a9782abd6c39946cbf3fd0715c9c6a08f6e1a3df3bf2d72620cd7",
    "verify all --max-n 3 --format json":
        "7e6fd42abfd4cbc5cb057e2bf6b8bcfc7ae9052bb164efb4b571a5d4a7bea717",
    "verify all --max-n 3 --format csv":
        "f824bdb259e83b07a03965c507753e7e694700d30ed8b5e6c3f6c0e7783bdf95",
}


def _masked(out: str) -> str:
    """stdout with every suite timing replaced by '#'."""
    out = re.sub(r"; \d+ ms\)", "; # ms)", out)
    out = re.sub(r'"ms": \d+', '"ms": #', out)
    return re.sub(r"^([^,\n]+,(?:pass|fail),)\d+,", r"\1#,", out, flags=re.M)


def _digest(capsys, argv) -> str:
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, argv
    return hashlib.sha256(_masked(out).encode()).hexdigest()


def test_every_invocation_has_a_recorded_hash():
    assert len(set(INVOCATIONS)) == len(INVOCATIONS)
    assert set(GOLDEN) == {" ".join(argv) for argv in INVOCATIONS}


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_output_matches_the_recorded_hash(capsys, argv):
    assert _digest(capsys, argv) == GOLDEN[" ".join(argv)]


#: `qyt --help` and each command's `--help` at 80 columns.
HELP_GOLDEN = {
    "--help":
        "c81964f9f2d9df8d0223a0a7b18a7569cc64699787731f4ea8d4b39e05e4b83c",
    "count --help":
        "f56c6f782c7d79d7e78054fcd7a3509a30923cf0a0059abeb7c8ea9c40e03cff",
    "board --help":
        "895405cb5dc8f14878618f70a32772fbd254edf95259107f4378e50aeaed857b",
    "verify --help":
        "972183706293f4f737b1401d03633f489d96892bda463b577198815dc11f9297",
    "table --help":
        "ab743a52d9506384e49f99dc0a1a5a09291d027a416662e6edb421001033d836",
    "rsk --help":
        "716dc2174516b2ba3e8111c5c76430d4105b805d33479ed85ab90ddb72f66ef7",
    "expand --help":
        "9dfe2d168c680e6426c846bc4cadf9781bd056bfe46297da4f1c7ffcaf64cd16",
}


@pytest.mark.parametrize("argv", HELP_GOLDEN)
def test_help_matches_the_recorded_hash(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_GOLDEN[argv]


def test_timings_are_masked():
    assert _masked("hit: pass (max_n=5; 12 ms)") == "hit: pass (max_n=5; # ms)"
    assert _masked('{"ms": 3, "suite": "hit"}') == '{"ms": #, "suite": "hit"}'
    assert _masked("suite,status,ms,counterexample\nhit,pass,7,\n") == (
        "suite,status,ms,counterexample\nhit,pass,#,\n")


if __name__ == "__main__":
    import contextlib
    import io

    for argv in INVOCATIONS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(list(argv)) == 0, argv
        print(f'    "{" ".join(argv)}":')
        print(f'        "{hashlib.sha256(_masked(buf.getvalue()).encode()).hexdigest()}",')
