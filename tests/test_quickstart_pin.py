"""Byte identity of every file the README quick-start chain writes.

``quickstart_digest.txt`` is the listing ``scripts/quickstart_digest.py``
prints for the confusion demo corpus.  A change that means to change an
output regenerates it,

    PYTHONPATH=src python3 scripts/quickstart_digest.py OUT_DIR \\
        > tests/quickstart_digest.txt

and names every file whose digest changed; any other change leaves it
alone.  The ``--uniform`` listing is checked by hand, by diffing it between
two source trees.
"""

from pathlib import Path

LISTING = Path(__file__).with_name("quickstart_digest.txt")
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_quickstart_outputs_are_pinned(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from quickstart_digest import digest_listing
    assert digest_listing(tmp_path / "demo") \
        == LISTING.read_text(encoding="utf-8").splitlines()
