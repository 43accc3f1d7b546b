"""Byte identity of every file the README quick-start chain writes.

``quickstart_digest.txt`` is the listing ``scripts/quickstart_digest.py``
prints for the confusion demo corpus, and ``quickstart_digest_uniform.txt``
the one it prints with ``--uniform``.  Uniform noise keeps every unit live
on every frame, so the second listing holds every column of the decoder's
LM rows, which the confusion corpus leaves mostly unread.  A change that
means to change an output regenerates both,

    PYTHONPATH=src python3 scripts/quickstart_digest.py OUT_DIR \\
        > tests/quickstart_digest.txt
    PYTHONPATH=src python3 scripts/quickstart_digest.py OUT_DIR2 --uniform \\
        > tests/quickstart_digest_uniform.txt

and names every file whose digest changed; any other change leaves them
alone.
"""

from pathlib import Path

LISTING = Path(__file__).with_name("quickstart_digest.txt")
UNIFORM_LISTING = Path(__file__).with_name("quickstart_digest_uniform.txt")
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_quickstart_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from quickstart_digest import digest_listing
    assert digest_listing(tmp_path / "demo") \
        == LISTING.read_text(encoding="utf-8").splitlines()


def test_quickstart_uniform_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from quickstart_digest import digest_listing
    assert digest_listing(tmp_path / "demo", confusion=False) \
        == UNIFORM_LISTING.read_text(encoding="utf-8").splitlines()
