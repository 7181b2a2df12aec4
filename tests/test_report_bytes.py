"""The CLI's report bytes are pinned: a change to the basis, spectral,
ordering or rendering code must leave every byte of these reports the same.
So are the library's basis rows and the exact hits of the root walk.

The digests were recorded once and must never be re-recorded to make a
change pass; a mismatch means the change altered the reports.  A report
written with ``--out`` is hashed from its file.
"""

import hashlib
from fractions import Fraction
from pathlib import Path

import pytest

from tpbases.bases import BasisFamily, BasisSpec, eval_basis_row
from tpbases.cli import main
from tpbases.spectral import isolate_real_roots, min_eigenvalue

PINNED = [
    ("tables --which 1,2 --degrees 3,4,5 --format json",
     "e54e40d7392f982a26f97d37beb7aa57f2438d151cfff0607d5514acdf1c59cc"),
    ("tables --which 1,2 --degrees 1,2,3,7 --format json",
     "4a13500db0e303786680903facf670787ae07d63466732f5974e77faa898dbf8"),
    ("tables --which 3,4 --degrees 3,4,5 --seed 9 --full --format json",
     "37505d3dd1b818cef45b727a051b7363413499244afc87f5c58ce75817ad3ca3"),
    ("verify --part all --degrees 1,2,3 --seed 193 --format csv",
     "14a2e1b7b7408c4101728cf28972a60d15536737bc9bc609e153f34d526c12ee"),
    ("tables --which 1,2 --degrees 6,7,8,9,10,11 --format json",
     "8199a368fc23545b36582198c3f6eb405acaeda00a66fc04d38f5aea0dd5b73b"),
    ("tables --which 1,2 --degrees 12,13 --format json",
     "41e582b8e350cef50b2b94b59c952411b66ffff0e2a4baea31eebd96a90482e5"),
    ("tables --which 2 --degrees 3,4,5 --format json",
     "8ed33d7d21bc13ff1b67c2dfb14528e128132c9f06ec5f9f6ab2b25d33b682ac"),
    ("tables --which 4 --degrees 3,4,5 --seed 9 --format json",
     "d623f7a2cc1d9361fc5ce24bc0d07e3c42c61af88db015203f2140e2ef77ed29"),
    ("tables --which 1,2,3,4 --degrees 3,4,5 --seed 9 --full --format md",
     "4b294e7ecb299622089b955ce5187f8bedd4e94bff60b2132d74ebec95a9f615"),
    ("tables --which 2,3 --degrees 4,3 --seed 139 --format md",
     "65d18e15e20f1a66b89a7dd8ac5cb132699ab0fb25b6754271024e59db7ec938"),
    ("verify --part all --degrees 1,2,3 --seed 193 --format md",
     "f441ff4d99e37195699adea3015dc4c4b3a600eeb5cacfe7180ae89fa332722a"),
    ("verify --part i --degrees 3,4,5 --seed 82 --format csv",
     "28739027b0e4f0c9ad6032c46dc0260c331f757100e01b302b777ab92291abf5"),
    ("verify --part ii --degrees 3,4,5 --seed 82 --format csv",
     "524049625c197fb6417014a301e3ea63e7c655abe3b531289cf180001b3b5ba7"),
    ("verify --part iii --degrees 3,4,5 --seed 82 --format csv",
     "d02c81b985c54ebfed0af252e9b01012664f173a7ec973d092d1289e53e5aff6"),
    ("tables --which 1,2,3,4 --degrees 3 --seed 9 --format csv",
     "15b5df4e4fc1d0614a5f0fc16ea18dfe6790f9c4c9489b7f083f8b948750dbec"),
    ("tables --which 1,2 --degrees 11 --format csv",
     "69b76c80c3546a29b1d67d85fa87716e913ee74cbebb51ca333785f898130803"),
    # the exact cone solver supplies the weights after the stream runs dry
    ("tables --which 3,4 --degrees 6 --max-iter 1000 --seed 9 --format csv",
     "15e1ba4e425b48812af32bc890cf8ef2ec5f6a180849a1753787f0fef5ff3248"),
    # table 1 alone takes the printed DP formula at degrees 3 and 5
    ("tables --which 1 --degrees 3,5 --format json",
     "2816efad9814d13234c994c24a501007e8bb7c3db19e7c653401eb16c1c87e06"),
    # an even published degree keeps the unity-corrected DP formula
    ("tables --which 1,2 --degrees 4 --format md",
     "97b5444035136384a2681eb0c7dd145064a12125e3bbfd8df02bb22412626507"),
    ("tables --which 3,4 --degrees 3,4,5 --seed 82 --format csv",
     "2f63c2e661960606a993fb3ee4798c3e7fff31b1ed0d42bff3c4bbf9ac222d00"),
    ("verify --part all --degrees 3 --seed 9 --format csv",
     "df446b6786bf5c77468c105ada6ad1ad9073b1912d77f3fe2591ce886bb5f29a"),
    ("verify --part all --degrees 3,4,5 --seed 82 --format csv",
     "53832aa831d95d2fd4535a60fcbc1502c890b09ffe16c4161e87d93e4ddc2c66"),
    ("tables --which 1,2,3,4 --degrees 3 --seed 9 --max-iter 1000000 "
     "--format md --full --out report.md",
     "84d66795f1c4dbd04db8e2972556738eab258f97fe386ec06ff470d2f58243d6"),
    ("verify --part all --degrees 3 --seed 9 --max-iter 1000000 "
     "--format json --out verify.json",
     "8fd4a1c2a3728ec97617897f7bf3fffbf80b33279a55df0c6b690f6fa5a97737"),
    # the benchmark's weight_search and verify_orderings jobs not pinned above
    ("tables --which 3,4 --degrees 3,4,5 --seed 139 --format csv",
     "f0f001e2e32ed3ea008911de81695e42bee8b1abd5601f403c6a0cc9bbf4614b"),
    ("tables --which 3,4 --degrees 3,4,5 --seed 193 --format csv",
     "bd37fa4521cdd7c8111d175df56d9f426ac58b9f57f03d029e71ca74d25db2c2"),
    ("tables --which 3,4 --degrees 6 --max-iter 200000 --seed 82 --format csv",
     "15e1ba4e425b48812af32bc890cf8ef2ec5f6a180849a1753787f0fef5ff3248"),
    ("verify --part all --degrees 3,4,5 --seed 139 --format csv",
     "53832aa831d95d2fd4535a60fcbc1502c890b09ffe16c4161e87d93e4ddc2c66"),
    # single rows: Said-Ball at odd and even degree, DP's odd middles, its
    # n = 1 ends, its even middle past the char-poly guard, and weights
    ("eval --family said-ball --degree 3 --x 1/5",
     "a6fb96124435919f20f53b684f4b312e3db36e5935fda1b6da9a221517341a05"),
    ("eval --family said-ball --degree 8 --x 2/7",
     "f9e3ec73c6d0bce2ccf97291c9be85b16ae32b3c3ee3638c78279b7aaffde94a"),
    ("eval --family dp --degree 9 --x 3/11",
     "2be86984b0c38fe15922dfa7fc99bd4f34061d72feec4ca129299736e8c31d9d"),
    ("eval --family dp --degree 1 --x 1/3",
     "978c4a09f8ff05ebecb0ef67c1c3cf6e07effb89128a331d16fd7cf511059d09"),
    ("eval --family dp --degree 24 --x 5/26",
     "5ee72a507190004dccee11b6e32e70401da5e7034193c8a7d7f7efdaa197b905"),
    ("eval --family monomial --degree 5 --x 2/3 --weights 1,2,3,4,5,6",
     "a4dd9dee61f3dccace228a0d8db4ef6f9bf43409d10f978d7f78665de6a64328"),
]


@pytest.mark.parametrize("command,digest", PINNED)
def test_report_bytes_are_pinned(command, digest, capsys, monkeypatch,
                                 tmp_path):
    monkeypatch.delenv("TPB_SEED", raising=False)
    monkeypatch.chdir(tmp_path)  # where --out writes its report
    args = command.split()
    assert main(args) == 0
    if "--out" in args:
        report = Path(args[args.index("--out") + 1]).read_bytes()
    else:
        report = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(report).hexdigest() == digest


def _digest(lines) -> str:
    return hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()


def test_basis_rows_are_pinned():
    # every family, n = 1..25, both DP formulas, at five points: 1000 rows
    points = [Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(7, 9),
              Fraction(1)]
    lines = [f"{family.value} {n} {literal} {x}: " + " ".join(
                 f"{v.numerator}/{v.denominator}" for v in eval_basis_row(
                     BasisSpec(family, n, dp_literal_middle=literal), x))
             for family in BasisFamily for n in range(1, 26)
             for literal in (False, True) for x in points]
    assert _digest(lines) == \
        "31785999bb3db27d71a3fb58d431a797d6a9306428ff7a67214fe0051a67abfa"


def test_exact_hit_enclosures_are_pinned():
    # roots the walk hits exactly: 1, 2, 3 and diagonal spectra
    encs = isolate_real_roots([-6, 11, -6, 1]) + [
        min_eigenvalue(m) for m in ([[1, 0, 0], [0, 2, 0], [0, 0, 3]],
                                    [[0, 0], [0, 1]])]
    assert _digest(f"{e.low} {e.high}" for e in encs) == \
        "e95b8d436dcc4653a2229dca4c1c8c490517f90f406a62fee4b5816bd7f2f0db"
