"""The CLI's report bytes are pinned: a change to the spectral, ordering or
rendering code must leave every byte of these reports the same.

The digests were recorded once and must never be re-recorded to make a
change pass; a mismatch means the change altered the reports.  A report
written with ``--out`` is hashed from its file.
"""

import hashlib
from pathlib import Path

import pytest

from tpbases.cli import main

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
