"""`blinkdet synth` and `blinkdet eval` write the same bytes as when these digests were recorded.

The test runs `synth --seed 7 --assets` and `eval --report` on each of its
five prediction families in-process, and compares the sha256 of every file
written with the digest recorded here. A refactor that should leave every
output unchanged is checked by this test instead of by hand.

`forward` is left out: its outputs come from BLAS matrix products, whose
kernels (and so the last bits of their sums) can differ from one host or
BLAS build to another. These commands use elementwise numpy and Python
arithmetic only, whose results do not depend on the host.
"""

import contextlib
import hashlib
import io

from blinkdet.cli_io.cli import EXIT_OK, main

FAMILIES = ("perfect", "shrunk60", "shifted_blinks", "noisy", "half_missing")

DIGESTS = {
    "expected.json": "bdef5d329144bc9760c07127eb7eb2729306c8db87c9cd657588e54c3a225728",
    "features_video_7_0.bin": "5b596b369c2852011ed824323431dfaaa28beb956422c6853361afeb2fda495c",
    "features_video_7_1.bin": "bf015ac1baf881d9e33f4310d2b3873454e83e26608ae643e330ee0ee9c296d5",
    "features_video_7_2.bin": "d4d765d3fe8e91f6e31c816e366a6ff4277ebd655c4e147b5d9f938ca4f21354",
    "gt.json": "fcc27cc8ca8cc5682b13108b5f96ba1831193eed3a662d1d9cbd28380f534bc1",
    "pred_half_missing.json": "bbb7c4e78ac20c484354a64519d1573b3ecb3a98c2786e81b7d1be7a6b1fba1b",
    "pred_noisy.json": "3bf5120b2e6914af60486096ad5dd0177add7a8c583945c6fde8b0599a942af1",
    "pred_perfect.json": "4311ab421e9c51a3cecc1d6b1a1dbd3e90516e574b7f8882dcb8fab6dce1c383",
    "pred_shifted_blinks.json": "1294587ce2ba4b59c9982c8d7775be43af3c5488b41deae09a36cedf6f83b9c3",
    "pred_shrunk60.json": "e4f439a5210fcde151c3e36598b82da9a7afbba65be1c0edca8dac3ca37cb4d6",
    "report_half_missing.json": "69deac8b8f6e51bca81f447e095c09e3a331ea42a9b4dbd08641f6411b46fb9e",
    "report_noisy.json": "1b3b3dac24ed21e9b25133eb4560c917bfe0e095a943ca668848f32d6b9410da",
    "report_perfect.json": "6c147e2a7b579d9069b33a3ee015bf8de3bf6b164cf2c99862b1221a75930ba3",
    "report_shifted_blinks.json": "4f1fa0e185c21c44640e4ae5fa666c0bbcac55ab96ce9abef5c03dc3b89e07e4",
    "report_shrunk60.json": "7edb3547005f6bfd4a7d9bcf6c197a60fe91e7710dd4abe34e488b777726ca64",
    "weights.bin": "2174b747eefcd1bd9abacde93fce4fcd4cfb784dfea7143d771d462efd990882",
}


def test_synth_and_eval_outputs_are_byte_identical(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["synth", "--seed", "7", "--out", str(tmp_path), "--assets"]) == EXIT_OK
        for family in FAMILIES:
            assert main(["eval", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / f"pred_{family}.json"),
                         "--report", str(tmp_path / f"report_{family}.json")]) == EXIT_OK
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()}
    assert digests == DIGESTS
