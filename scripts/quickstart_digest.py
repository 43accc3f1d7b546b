#!/usr/bin/env python3
"""Run the README quick-start chain on a fresh demo corpus and print the
sha256 of every file the chain writes, one ``<digest>  <path>`` line each.

    PYTHONPATH=src python3 scripts/quickstart_digest.py OUT_DIR [--uniform]

The demo corpus has 30 utterances, 50 keywords and noise 0.3.  The chain
is ``synth --confusion`` (or uniform noise with ``--uniform``), ``lm-train``
for both unit inventories, ``decode`` for both, ``kws`` with and without
the syllable N-best, ``eval``, ``ablate --rare-keywords`` at ``--jobs 1``
and ``--jobs 2``, and ``decode`` for both again at ``--jobs 2``, each into
its own ``*_jobs2.jsonl`` file, whose digest must equal the first decode's.
Two source trees that give the same lines give byte-identical outputs, so
running this once per tree, with that tree's ``src`` on PYTHONPATH, and
diffing the two listings checks that a change kept every output.
``tests/quickstart_digest.txt`` is the listing without ``--uniform`` and
``tests/quickstart_digest_uniform.txt`` the one with it;
``tests/test_quickstart_pin.py`` holds every change to both.
"""

import argparse
import hashlib
from pathlib import Path

from kwspot.cli import main as kwspot
from make_demo_corpus import write_demo


def run_chain(out: Path, confusion: bool) -> None:
    cfg = ["--config", str(out / "config.ini")]
    pg = out / "pg"
    steps = [
        ["synth", out / "transcripts.tsv", pg] + (["--confusion"] if confusion
                                                  else []),
        ["lm-train", out / "lm_corpus.txt", out / "char.arpa"],
        ["lm-train", out / "lm_corpus.txt", out / "syll.arpa",
         "--unit", "syllable"],
        ["decode", pg / "char", out / "char.jsonl"],
        ["decode", pg / "syll", out / "syll.jsonl", "--stage", "syll"],
        ["kws", pg, out / "hits.tsv", "--nbest-char", out / "char.jsonl",
         "--nbest-syll", out / "syll.jsonl"],
        ["kws", pg, out / "hits_char_fuzzy.tsv", "--nbest-char",
         out / "char.jsonl"],
        ["eval", out / "hits.tsv", pg / "refs.tsv", "--pgram-dir", pg,
         "--out", out / "eval.json"],
    ]
    for jobs in (1, 2):
        steps.append(["--jobs", jobs, "ablate", pg, pg / "refs.tsv",
                      "--rare-keywords", out / "rare_keywords.txt",
                      "--out", out / f"ablate_jobs{jobs}.json"])
    steps += [["--jobs", 2, "decode", pg / "char", out / "char_jobs2.jsonl"],
              ["--jobs", 2, "decode", pg / "syll", out / "syll_jobs2.jsonl",
               "--stage", "syll"]]
    for step in steps:
        argv = cfg + [str(a) for a in step]
        if kwspot(argv) != 0:
            raise SystemExit(f"failed: kwspot {' '.join(argv)}")


def digest_listing(out: Path, confusion: bool = True) -> list[str]:
    """Write the demo corpus into the new or empty directory ``out``, run
    the chain there and return one ``<digest>  <path>`` line per file the
    chain wrote, in path order."""
    write_demo(out, num_utts=30, noise=0.3)
    inputs = set(out.rglob("*"))
    run_chain(out, confusion)
    digests, lines = {}, []
    for path in sorted(p for p in out.rglob("*")
                       if p.is_file() and p not in inputs):
        digest = digests[path.name] = hashlib.sha256(
            path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(out)}")
    for stage in ("char", "syll"):
        if digests[f"{stage}.jsonl"] != digests[f"{stage}_jobs2.jsonl"]:
            raise SystemExit(f"{stage}: the --jobs 2 N-best differs")
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", type=Path, help="a new or empty directory")
    ap.add_argument("--uniform", action="store_true",
                    help="synthesise without the confusion tables")
    args = ap.parse_args()
    out = args.out_dir.resolve()
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"{out} is not empty")
    print("\n".join(digest_listing(out, confusion=not args.uniform)))


if __name__ == "__main__":
    main()
