"""The CLI's report bytes are pinned: a change to the spectral, ordering or
rendering code must leave every byte of these reports the same.

The digests were recorded once and must never be re-recorded to make a
change pass; a mismatch means the change altered the reports.
"""

import hashlib

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
]


@pytest.mark.parametrize("command,digest", PINNED)
def test_report_bytes_are_pinned(command, digest, capsys, monkeypatch):
    monkeypatch.delenv("TPB_SEED", raising=False)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
