"""Byte-for-byte guards on the command line output.

Every file command (``analyze``, ``spin``, ``classify``, ``evensets``), in
text and ``--json``, is run on each demo curve and on three curves built
here; the sha256 of its exit status, stdout and stderr is pinned.  A change
to a fast path that alters any printed byte, the order of the even sets
included, fails here.  ``verify 6`` is pinned the same way, with its elapsed
times masked, so a change to enumeration or to the theorem verdicts that
alters a printed byte fails too.  Also runs ``perfbench/selftest.py``, whose
oracles reject any JSON shape the benchmark would not accept.
"""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

from spincomb.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos" / "curves").glob("*.curve"))
COMMANDS = ("analyze", "spin", "classify", "evensets")

BUILT = {
    # K4 with one edge subdivided twice, a chain from c back to c, and a
    # pendant path ending in a loop: series classes of every kind but a
    # whole cycle
    "subdivided_k4": """\
v a genus=0
v b genus=1
v c genus=0
v d genus=0
v s1 genus=0
v s2 genus=0
v t1 genus=0
v t2 genus=2
v p1 genus=0
v p2 genus=1
e ab1 a s1
e ab2 s1 s2
e ab3 s2 b
e ac a c
e ad a d
e bc b c
e bd b d
e cd c d
e ct1 c t1
e t12 t1 t2
e t2c t2 c
e dp d p1
e pp p1 p2
e loop p2 p2
""",
    # a fat triangle with one parallel pair subdivided, hung on a bridge
    # from a 4-cycle whose vertices all have two cycle edges
    "subdivided_fat_triangle": """\
v x genus=0
v y genus=0
v z genus=0
v m genus=1
v w1 genus=0
v w2 genus=0
v w3 genus=1
v w4 genus=0
e xy1 x m
e xy1b m y
e xy2 x y
e xz1 x z
e xz2 x z
e yz1 y z
e yz2 y z
e bridge z w1
e w12 w1 w2
e w23 w2 w3
e w34 w3 w4
e w41 w4 w1
""",
    # b1 = 31: every command that enumerates is refused with an error line
    "split_b1_31": "v a genus=0\nv b genus=0\n"
    + "".join(f"e n{i} a b\n" for i in range(32)),
}

# sha256 of "<exit status>\0<stdout>\0<stderr>", recorded before the series
# class pass went in
GOLDEN = {
    "compact_type_g4 analyze json": (
        "4df0517a52b822e3bb04fe2d5da2d89ea277f80cc1bce1a38accd843f7b3f85a"
    ),
    "compact_type_g4 analyze text": (
        "790b4fb9e182830abc01ce05f9cd0356f3a7f693a90e816074c5bce54232ac3d"
    ),
    "compact_type_g4 classify json": (
        "950869a1f1516bc701c8ee596ebc71d87f501a900d12b1da2b0bb09c1cbddb4c"
    ),
    "compact_type_g4 classify text": (
        "861f15e613966c139a8239259b80eaecc525beec81769539c03b3cbb66b5ec4b"
    ),
    "compact_type_g4 evensets json": (
        "0674658261fd684b13f37b9b91f385807fd630f6a95041e77663bb02b4cfccab"
    ),
    "compact_type_g4 evensets text": (
        "6028553ea17d5979612c4bef8439d3fafba61e137243849180ff67754c2ac23e"
    ),
    "compact_type_g4 spin json": (
        "4a24d0e884b2b3cc3eb15387c8f2474f6b68212526dc47acda391085ec191a9a"
    ),
    "compact_type_g4 spin text": (
        "9f20b9b333ab119ce1c5057a27d81c0152069ceaf7db22dc01d9177b214e53b1"
    ),
    "fat_triangle analyze json": (
        "3fe055a7f1a43887f91a46577bfe5b1adf08513a51d6e44ae77667f39c2a50cb"
    ),
    "fat_triangle analyze text": (
        "c16d73ac9f319f3e54107e2250f0f47cad20bdb193de54aa19afe2f431ed432e"
    ),
    "fat_triangle classify json": (
        "cf7a80d13aeba2addb8a939a25b09131ecd72c5f3855c046041faa2ec25cd759"
    ),
    "fat_triangle classify text": (
        "0038564b7def70620742bddfb9fc8eee10e986549e086ac8160d1c6bb4d127fc"
    ),
    "fat_triangle evensets json": (
        "ce9fed55edcdc84cf18ece12dfc0c2a0a218bb13925875c1c1ddd3c3cae5fb2b"
    ),
    "fat_triangle evensets text": (
        "503fc5b9d9f28953dfab79acf3d8b49793dbbd76ae4098cc43012052b405ff56"
    ),
    "fat_triangle spin json": (
        "ee92c12f11292d36004217ce3570f5dd65f53f4a349f84301796a574920a20b0"
    ),
    "fat_triangle spin text": (
        "c1c1ba36e2f7c26ab3d50b1343dee8eeeef05f9773e70ffec3a28ba4cc1a488f"
    ),
    "loop_g4 analyze json": (
        "88da44608a8a9a5f0d8779b870b895a7bb9be780a5f59e1d98c876fb08d63e93"
    ),
    "loop_g4 analyze text": (
        "f67ba836dd6cb09a705de283e4a6713d24e1885e4676ab9ecf0847e2cdf1ec8f"
    ),
    "loop_g4 classify json": (
        "600cc2a1d15ea661e3c1162b12f4957f686ef6d54d4da4d67cca04be13f71a30"
    ),
    "loop_g4 classify text": (
        "83d8508b1f9ec9e17a5621ad589977d50870326bd1a60636521255ba2bc2070a"
    ),
    "loop_g4 evensets json": (
        "dbdf503b62dbe9b0ba44b2a62a800d0fff6259a8d5f0618418dad62758c03020"
    ),
    "loop_g4 evensets text": (
        "8b14e2ffc2ac81c32ccafa08236f454a757f1d288bcb2b914a1a8a5e43c45ed1"
    ),
    "loop_g4 spin json": (
        "2a5782781bd32de18d933c0aa5f0892c9fdd677f622ace22f37936314746e6d2"
    ),
    "loop_g4 spin text": (
        "b838ecf5703b92d8ddd905b012cc717ba4226beba8fc86fc8a859fa4ee044c89"
    ),
    "split_b1_31 analyze json": (
        "f8d716260675d6f7e4a48a0d70dca636a077fed4b668f135edc79a77f3a1b629"
    ),
    "split_b1_31 analyze text": (
        "f8d716260675d6f7e4a48a0d70dca636a077fed4b668f135edc79a77f3a1b629"
    ),
    "split_b1_31 classify json": (
        "f8d716260675d6f7e4a48a0d70dca636a077fed4b668f135edc79a77f3a1b629"
    ),
    "split_b1_31 classify text": (
        "f8d716260675d6f7e4a48a0d70dca636a077fed4b668f135edc79a77f3a1b629"
    ),
    "split_b1_31 evensets json": (
        "f8d716260675d6f7e4a48a0d70dca636a077fed4b668f135edc79a77f3a1b629"
    ),
    "split_b1_31 evensets text": (
        "f8d716260675d6f7e4a48a0d70dca636a077fed4b668f135edc79a77f3a1b629"
    ),
    "split_b1_31 spin json": (
        "f8d716260675d6f7e4a48a0d70dca636a077fed4b668f135edc79a77f3a1b629"
    ),
    "split_b1_31 spin text": (
        "f8d716260675d6f7e4a48a0d70dca636a077fed4b668f135edc79a77f3a1b629"
    ),
    "split_g3 analyze json": (
        "72397a509c0f5233bfdc8d85e496c94aef801cccebb7ca3f5cffdc2b033d2be5"
    ),
    "split_g3 analyze text": (
        "68f00ef1f1b8e69c090628a28abf0d40a89362ec549c72b89f2ca3024bd7f79a"
    ),
    "split_g3 classify json": (
        "6e4ee0fedf0d90cd259a1eec11546d8b828446514fbafcd4f57e891fda8cf096"
    ),
    "split_g3 classify text": (
        "892f8031da0283c8ca2103a888e33a0cc0460b1abf61207ed51c2d4f45f78407"
    ),
    "split_g3 evensets json": (
        "9079a584c2101a7500edf6b205d37d6a4a4d65bbb66651ccab983fdf8d17b432"
    ),
    "split_g3 evensets text": (
        "291382260ba087ebbc5e9dedc56b2ae4ecc53afa0d27a70c766e330938afe750"
    ),
    "split_g3 spin json": (
        "1464094ddef31bd6da9a298525cd3d18a9871ea14d940f96fa8f1878d39e9c82"
    ),
    "split_g3 spin text": (
        "6ef4fe4832aae6088ab3b8586de18b4a0c6b01fb86f35120933b47167f036678"
    ),
    "subdivided_fat_triangle analyze json": (
        "68cafb3d4bf78472ee152a7bf989959bfc74db2f0d13486a5b03c13826db426a"
    ),
    "subdivided_fat_triangle analyze text": (
        "a97e88ee82c6f753e32b74536def16828acdcd832af0ed1c7cef78eec1002fa7"
    ),
    "subdivided_fat_triangle classify json": (
        "eb169cfeb48e5df7c7c32c81f30dbfaa0469adbdf89bf06d71d169e329e452f7"
    ),
    "subdivided_fat_triangle classify text": (
        "aad4840389c0e1b10d1e23dd367cd5e766825729358c7e28303d4cd0c446677e"
    ),
    "subdivided_fat_triangle evensets json": (
        "6110eb90d874b8fa9d6c891a14f67993e7c62245eed2503ce37313dd0662a304"
    ),
    "subdivided_fat_triangle evensets text": (
        "7d0bb2d5884d702164ab40e50a32b821cc5f0132c7b0bee22745a06df2b262fa"
    ),
    "subdivided_fat_triangle spin json": (
        "85ced7100e20a9dbc2618ec476d30f4961f3846abd31d1e46938620f463a7bd9"
    ),
    "subdivided_fat_triangle spin text": (
        "a54d69e7403092e3a0eac84d55cbdbba6334d5fb4f84643ce921fca3c4f32846"
    ),
    "subdivided_k4 analyze json": (
        "21f60b989a628ff746b03374c2ee578675c0f40804a090fdfe104714b109bf1a"
    ),
    "subdivided_k4 analyze text": (
        "26f47339b9558a9548bda7800a1aa891167f6b1eded151aec81130e05394a490"
    ),
    "subdivided_k4 classify json": (
        "a8af6d69d26fe77332b6f585291479f89ef42ac6efe4739fe4da0db0c6ddb5b4"
    ),
    "subdivided_k4 classify text": (
        "b708fa431ea6ce212cd5d856a567361473e08cca1945c62883cba47e6a54e023"
    ),
    "subdivided_k4 evensets json": (
        "b8b9b9b5fe6f97a78d277ce1ef0f5229f76f7d43a901bcd1f80eab810a7ba336"
    ),
    "subdivided_k4 evensets text": (
        "48b90d7528efff37a90558a74ec3ef3736610922a103dc7c112873b429a4299c"
    ),
    "subdivided_k4 spin json": (
        "62f3106e6a5196034f2542f68bd68828e507ac228bd07b9741a3d3838cb143c1"
    ),
    "subdivided_k4 spin text": (
        "75bc3a766f64ba2a9d42b9b24d54138d3990237088b643016ae4f48365f997fd"
    ),
    "tetrahedron analyze json": (
        "413db6c987223efdbaa7cee3045f605064217bab042bc39438ba5a2125a1af9e"
    ),
    "tetrahedron analyze text": (
        "5e5e202effa4be39c65974b7eefeca34694c9713909ae0dfdace87cf14d2d868"
    ),
    "tetrahedron classify json": (
        "0e3b11548387dfee197c8d432f0094813c5ae48b8c4699af252fe2122375bb78"
    ),
    "tetrahedron classify text": (
        "852c80d94c79af51f38138de617cb2a0b0d2f71eb7e61f8585c85e9f145b6b8a"
    ),
    "tetrahedron evensets json": (
        "b0a6127736c9b0e840ae9d6743c499081518dd7683704fe932b42fdc291b0f1f"
    ),
    "tetrahedron evensets text": (
        "e3fb0a068e183363be38e72cde5748b773698fe206c512ad9a9487c9643468b9"
    ),
    "tetrahedron spin json": (
        "53ac76b783fb0d0bc52c3714ee9b0f650919ad9d864e504d2823f0ddc6cd723e"
    ),
    "tetrahedron spin text": (
        "35ef12c201681beb3083d4887dab318204da5b4dc0cca22b6b4a7547ff42cc08"
    ),
}


def _curves(tmp_path):
    paths = {p.stem: p for p in DEMOS}
    for name, text in BUILT.items():
        paths[name] = tmp_path / f"{name}.curve"
        paths[name].write_text(text)
    return paths


def _digest(argv, capsys) -> str:
    status = main(argv)
    out, err = capsys.readouterr()
    return hashlib.sha256(f"{status}\0{out}\0{err}".encode()).hexdigest()


def test_every_command_prints_the_pinned_bytes(tmp_path, capsys):
    got = {}
    for name, path in _curves(tmp_path).items():
        for command in COMMANDS:
            for fmt in ("text", "json"):
                argv = (["--json"] if fmt == "json" else []) + [command, str(path)]
                got[f"{name} {command} {fmt}"] = _digest(argv, capsys)
    assert got == GOLDEN


# sha256 of "status\0stdout\0stderr" of ``verify 6``, elapsed times masked
VERIFY_GOLDEN = {
    "text": "578090adbad3688f4e893016ccc8970cdb6787cca5a22d98f2d2b4db0431a593",
    "json": "1c0616aa732a4b220b4ab8b2614b1f864a228702d85b67cd6ae04bb547f7cb01",
}
ELAPSED = re.compile(r'(\(|"elapsed_seconds": )[0-9.e-]+')


def test_verify_prints_the_pinned_bytes(capsys):
    got = {}
    for fmt in ("text", "json"):
        status = main((["--json"] if fmt == "json" else []) + ["verify", "6"])
        out, err = capsys.readouterr()
        out = ELAPSED.sub(lambda m: m.group(1) + "X", out)
        got[fmt] = hashlib.sha256(f"{status}\0{out}\0{err}".encode()).hexdigest()
    assert got == VERIFY_GOLDEN


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failure(s)" in proc.stdout
