"""Golden CLI outputs: the sha256 of stdout and the exit code per request.

The digests pin the exact bytes every subcommand prints for a fixed
corpus, so a refactor or a faster kernel that changes any report, witness,
count or exit code fails here.  They were recorded before the int-residue
construction of curve points and lines; the two suites at p = 1009 and
p = 1019 (where (-3, 2) has three rational 3-torsion points, so the flex
sets are not trivial) before the int kernel of the per-point suite checks.
The five requests at p = 65521, near the top of the domain 3 < p < 2^16,
pin each heavy subcommand where it costs most.  When they were recorded,
every report passed (degree --order 4 exits 1 by design), the images had
degree 3 and 6, the suite paired and cross-checked every point and the
quotient's count was an int.  To re-record after a deliberate change of
output, run ``PYTHONPATH=src python tests/test_golden.py`` and paste what
it prints.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from chordcubic.cli import main

CORPUS = [
    ("identity",),
    ("cubic", "--a", "-3", "--b", "2"),
    ("cubic", "--a", "1/2", "--b=-7/3"),
    ("map", "--a", "0", "--b", "4", "--x", "2", "--y", "4"),
    ("map", "--a", "0", "--b", "4"),
    ("map", "--a", "0", "--b", "4", "--x", "1", "--y", "1"),
    ("map", "--a", "-3", "--b", "2", "--x", "3", "--y", "39", "--prime", "101"),
    ("map", "--a", "-3", "--b", "2", "--x", "0", "--y", "0", "--prime", "101"),
    ("map", "--a", "-3", "--b", "2", "--x", "1/3", "--y", "1", "--prime", "101"),
    ("suite", "--a", "-3", "--b", "2", "--prime", "101"),
    ("suite", "--a", "1", "--b", "3", "--prime", "101"),
    ("suite", "--a", "1", "--b", "1", "--prime", "101"),
    ("suite", "--prime", "101", "--random", "3"),
    ("suite", "--prime", "103", "--random", "3", "--seed", "5"),
    ("suite", "--a", "-3", "--b", "2", "--prime", "1019"),
    ("suite", "--prime", "1009", "--random", "2"),
    ("degree", "--a", "-3", "--b", "2", "--prime", "101", "--order", "2"),
    ("degree", "--a", "-3", "--b", "2", "--prime", "101", "--order", "3"),
    ("degree", "--a", "-3", "--b", "2", "--prime", "101", "--order", "4"),
    ("degree", "--a", "-3", "--b", "2", "--prime", "101", "--order", "5"),
    ("degree", "--a", "1", "--b", "1", "--prime", "101", "--order", "2"),
    ("degree", "--a", "1", "--b", "1", "--prime", "101", "--order", "3"),
    ("degree", "--a", "1", "--b", "1", "--prime", "101", "--order", "4"),
    ("degree", "--a", "1", "--b", "1", "--prime", "101", "--order", "5"),
    ("quotient", "--a", "-3", "--b", "2"),
    ("quotient", "--a", "1", "--b", "3", "--prime", "101"),
    ("flexes", "--a", "-3", "--b", "2", "--prime", "101"),
    ("flexes", "--a", "1", "--b", "1", "--prime", "101"),
    ("suite", "--a", "-3", "--b", "2", "--prime", "65521"),
    ("degree", "--a", "-3", "--b", "2", "--prime", "65521", "--order", "2"),
    ("degree", "--a", "-3", "--b", "2", "--prime", "65521", "--order", "4"),
    ("flexes", "--a", "-3", "--b", "2", "--prime", "65521"),
    ("quotient", "--a", "-3", "--b", "2", "--prime", "65521"),
]

GOLDEN = {
    "identity": ("762471ff3bb88c220fa6fa6ca983fb4f1128740d0b6a39e5bf85f7231d290b83", 0),
    "cubic --a -3 --b 2": ("d7989963ae1108db5b72723b2135d15f94c7745d5a9af4a842aa37e396408779", 0),
    "cubic --a 1/2 --b=-7/3": ("5093fefaded7f37c6f4055ab326eb280f517a7739961650b1824b8e7c485e4a3", 0),
    "map --a 0 --b 4 --x 2 --y 4": ("53f2792253d4c1c83a6e43f9780f96c2fa82aca952cf204f2aae40a60c9f4a43", 0),
    "map --a 0 --b 4": ("e96f302cf08a7cfffd02d4b7e832b754b79f13146f6698230fac54d57460982f", 0),
    "map --a 0 --b 4 --x 1 --y 1": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "map --a -3 --b 2 --x 3 --y 39 --prime 101": ("0f1e1277243d8e30ef399173ca46ff6e86fe5db33d3af2c71d238c7c76171c6d", 0),
    "map --a -3 --b 2 --x 0 --y 0 --prime 101": ("aeacb0804ecdf090882c05846b89f09947b2cec6e50f70dc8e44facccb44fb6c", 0),
    "map --a -3 --b 2 --x 1/3 --y 1 --prime 101": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    "suite --a -3 --b 2 --prime 101": ("c32d853b0c190e8988dbc6c3c21db781f3787d0bc57c516298f989c55234c114", 0),
    "suite --a 1 --b 3 --prime 101": ("a808873611d35908a5037edc738390aa1af6a01a31f4daed6d34c6bc1b00d357", 0),
    "suite --a 1 --b 1 --prime 101": ("2e5da78654a0aca7a329a7dd901df8d4ad8b33204adbccf8999834e2f3444f54", 0),
    "suite --prime 101 --random 3": ("75f99e694b10ed6db19b7356e1e07c7a51642b3c340c838f4d75ddc6f81b2a4f", 0),
    "suite --prime 103 --random 3 --seed 5": ("932a2570126457d4ceb1ffb3e5b5c9d94477eea46871ede6b5131bfb47db1d4b", 0),
    "suite --a -3 --b 2 --prime 1019": ("d83c186adc7b9fc7ca3dc6f576b733ab5d012e2cb4ea36d5edeb470c397bcd2c", 0),
    "suite --prime 1009 --random 2": ("7ba5f360196254bd23810b4dcff3629f53d9cd4f2a95b5ed210be483932e7e16", 0),
    "degree --a -3 --b 2 --prime 101 --order 2": ("d0be18bd36cff00b4e65f7b8d9ca1067c0d7f16b2126917fd0fa701a2f0c1df3", 0),
    "degree --a -3 --b 2 --prime 101 --order 3": ("34057d6b6025a7bad0e9c831fd8a7ddf2cf26639e5ed5f8298c34c6ce96a85b6", 0),
    "degree --a -3 --b 2 --prime 101 --order 4": ("c7dda0c7198d31d02b6fa0105541de41514987ca43c4a2128e37ce750d756865", 1),
    "degree --a -3 --b 2 --prime 101 --order 5": ("01ef30db704109c553af3b6dd7e0c36af82d9126af96db37c73a36bf1f9955f9", 0),
    "degree --a 1 --b 1 --prime 101 --order 2": ("07aeaa600776022ca97bdb39c837dca8aacf613b532d1bc0a4bf4fb1bf38ba89", 0),
    "degree --a 1 --b 1 --prime 101 --order 3": ("7872445e0bc2be2c023535505d92112c8a95ca5e4af6133a95a2b42b89ba9687", 1),
    "degree --a 1 --b 1 --prime 101 --order 4": ("57a9dc0afc44e54ed0800b1c603f47553bf088be904394f022e85fa5793ff9ba", 1),
    "degree --a 1 --b 1 --prime 101 --order 5": ("a0d77f61cf2b1746a2e53f4b9491b6233785c74df297c19a4ee7094cabb24676", 1),
    "quotient --a -3 --b 2": ("f08748fbc3a4f47f4449f6a45439c1d00326d6df312f2e32f0ada3c46cf4a84a", 0),
    "quotient --a 1 --b 3 --prime 101": ("103c3d99ccf86735073fa8936eabd6807b610cf5d0c4fa5635d1c5ef9b64e314", 0),
    "flexes --a -3 --b 2 --prime 101": ("65f3c898427a84121713ed0c4a544748d0b48bd09d4557e183f190cdd84c4f11", 0),
    "flexes --a 1 --b 1 --prime 101": ("c06998ee16980e9e26edea5e99be4fa10719b04b6f82a16e60872dd3f94a2d6e", 0),
    "suite --a -3 --b 2 --prime 65521": ("fdc9d3454b4e507921abbd5218f4c7a347fb6f298df740ee76d83c3820343ee2", 0),
    "degree --a -3 --b 2 --prime 65521 --order 2": ("cd6fd5b9a31aa7e6f300fdd7b3ccc9389343112efaf181a2fb6a7a86e0c0abd8", 0),
    "degree --a -3 --b 2 --prime 65521 --order 4": ("a276999273a07be386af1b68bcc4d7ca0082ceee5944714fbc14651af82e08ac", 1),
    "flexes --a -3 --b 2 --prime 65521": ("349f28d6d5797f61d58c143ab97bca89dc404f452aac3461821f2ffa8c6b23d2", 0),
    "quotient --a -3 --b 2 --prime 65521": ("b65bbccce5f9559d23edebe60124d37e129788a45a3c2be2258146b17a63873f", 0),
}


def _digest(argv) -> tuple:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_cli_output_matches_golden_digest(argv):
    assert _digest(argv) == GOLDEN[" ".join(argv)]


def test_every_corpus_entry_has_a_digest():
    assert set(GOLDEN) == {" ".join(argv) for argv in CORPUS}


if __name__ == "__main__":
    for argv in CORPUS:
        digest, code = _digest(argv)
        print(f'    "{" ".join(argv)}": ("{digest}", {code}),')
