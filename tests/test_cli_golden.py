"""Golden corpus of CLI JSON documents.

Every argv in ARGVS runs through ``cli.run`` and must reproduce, byte
for byte, the exit code and the ``--json`` document recorded in
``cli_golden.jsonl``: the document is compared as
``json.dumps(payload, indent=2, sort_keys=True)``, which is exactly what
the CLI prints.  A refactor that changes no answer leaves the corpus
untouched; an intended change of answers regenerates it with

    PYTHONPATH=src python tests/test_cli_golden.py --write

and the diff of ``cli_golden.jsonl`` shows what changed.

The corpus covers every README example except ``selftest`` (its document
carries wall-clock timings), a grid of groups x (l, m, k, n, p) for
``classify``, ``gauge decompose``, ``gauge pi``, ``gauge equiv-s7`` and
``tables lookup``, and refusals with exit codes 1, 2 and 3.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from bundlegauge import cli

CORPUS = Path(__file__).with_name("cli_golden.jsonl")

GROUPS = (
    "SU2", "SU3", "SU4", "SU5", "Sp1", "Sp2", "Sp3", "Spin5", "Spin6",
    "Spin7", "Spin8", "Spin9", "Spin11", "G2", "F4", "E6", "E7", "E8",
)

README_EXAMPLES = (
    "classify --group Sp2 --l 3 --m 5",
    "classify --group SU4 --l 0 --m 5 --k 12",
    "manifold equiv --a 3,0 --b 15,0",
    "manifold homology --l 3 --m 6",
    "manifold suspend --l 0 --m 50 --p 5",
    "gauge decompose --group SU4 --l 12 --m 0 --k 1",
    "gauge decompose --group Sp2 --l 0 --m 25 --k 5 --p 5",
    "gauge pi --group Spin8 --l 0 --m 5 --k 0 --n 0 --p 5",
    "gauge pi --group Spin8 --l 0 --m 0 --unpointed",
    "gauge equiv-s7 --group SU2 --k 1 --kp 2",
    "gauge equiv-s7 --group SU3 --k 0 --kp 3 --locality 2",
    "gauge equiv-su5 --k 1 --kp 121",
    "tables lookup --space S3 --i 6",
    "tables lookup --group Sp2 --i 4",
    "tables lookup --moore 8",
    "oracle homology --l 3 --m 6",
    "oracle homology --complex my-complex.txt",
)

# Refusals raised by the package itself, not by argparse, so that the
# messages do not depend on the Python version.
REFUSALS = (
    # exit 1: usage errors
    "classify --group SU1 --l 0 --m 0",
    "classify --group Foo --l 0 --m 0",
    "gauge pi --group SU4 --l 0 --m 5",
    "gauge pi --group SU4 --l 0 --m 25 --p 9",
    "gauge decompose --group SU4 --l 0 --m 25 --p 25",
    "gauge equiv-s7 --group G2 --k 0 --kp 1 --locality p-adic",
    "gauge equiv-s7 --group G2 --k 0 --kp 1 --locality 9",
    "tables lookup --space S3 --group SU4 --i 3",
    "tables lookup --space X3 --i 3",
    "tables lookup --space S3",
    "manifold equiv --a 3 --b 15,0",
    "oracle homology --l 3",
    "manifold",
    "",
    # exit 2: outside the hypotheses
    "classify --group G2 --l 0 --m 0",
    "classify --group SU3 --l 1 --m 7",
    "gauge decompose --group SU4 --l 0 --m 25 --p 3",
    "gauge decompose --group SU4 --l 0 --m 25 --k 1 --p 7",
    "gauge decompose --group SU4 --l 0 --m 0 --p 5",
    "gauge decompose --group SU4 --l 0 --m 25",
    "gauge pi --group SU4 --l 0 --m 1",
    "gauge pi --group SU4 --l 5 --m 0 --unpointed",
    "gauge pi --group SU4 --l 0 --m 0 --n 1 --unpointed",
    "gauge pi --group SU4 --l 0 --m 25 --n 1 --p 5 --unpointed",
    "gauge pi --group SU4 --l 0 --m 25 --p 3",
    "gauge equiv-s7 --group G2 --k 0 --kp 1",
    "manifold suspend --l 0 --m 50 --p 3",
    # exit 3: unknown values and table gaps
    "gauge pi --group SU4 --l 0 --m 0 --n 3",
    "gauge pi --group Spin8 --l 0 --m 25 --k 1 --n 1 --p 5",
    "gauge pi --group SU4 --l 0 --m 25 --k 2 --p 5 --unpointed",
    "gauge pi --group SU4 --l 0 --m 25 --n 9 --p 5",
    "gauge pi --group SU4 --l 0 --m 25 --n 9 --p 5 --looped",
    "tables lookup --space S3 --i 25",
    "tables lookup --group SU4 --i 10",
)


def _classify() -> list[str]:
    cases = ("--l 3 --m 0", "--l 0 --m 5 --k 12", "--l 1 --m 1", "--l -2 --m 25 --k 7")
    return [f"classify --group {g} {c}" for g in GROUPS for c in cases]


def _decompose() -> list[str]:
    cases = (
        "--l 12 --m 0 --k 1",
        "--l 7 --m 0 --k 2 --pointed",
        "--l 0 --m 25 --k 5 --p 5",
        "--l 0 --m 25 --k 0 --p 5",
        "--l 0 --m 25 --p 5 --pointed",
        "--l 0 --m 49 --k 3 --p 7 --pointed --looped",
        "--l 3 --m 6 --p 5",
        "--l 0 --m 1",
    )
    return [f"gauge decompose --group {g} {c}" for g in GROUPS for c in cases]


def _pi() -> list[str]:
    cases = (
        "--l 0 --m 0 --n 0",
        "--l 5 --m 0 --k 3 --n 1",
        "--l -24 --m 0 --unpointed",
        "--l 0 --m 5 --n 0 --p 5",
        "--l 0 --m 25 --n 1 --p 5",
        "--l 2 --m 49 --k 1 --n 0 --p 7",
        "--l 2 --m 49 --k 3 --n 1 --p 7 --looped",
        "--l 0 --m 6 --n 0 --p 5",
        "--l 0 --m 125 --p 5 --unpointed",
    )
    return [f"gauge pi --group {g} {c}" for g in GROUPS for c in cases]


def _equiv_s7() -> list[str]:
    cases = ("--k 1 --kp 4", "--k 0 --kp 3 --locality rational", "--k 2 --kp 3 --locality 5")
    return [f"gauge equiv-s7 --group {g} {c}" for g in GROUPS for c in cases]


def _lookup() -> list[str]:
    out = [f"tables lookup --group {g} --i {i}" for g in GROUPS for i in (3, 6, 9)]
    out += [f"tables lookup --space S{n} --i {i}" for n in (1, 3, 4, 7) for i in (3, 7)]
    out += [f"tables lookup --moore {m}" for m in (2, 5, 12, 50)]
    return out


ARGVS = [
    ["--json", *line.split()]
    for line in dict.fromkeys((
        *README_EXAMPLES, *_classify(), *_decompose(), *_pi(), *_equiv_s7(),
        *_lookup(), *REFUSALS,
    ))
]


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _load() -> list[dict]:
    return [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def write() -> None:
    lines = []
    for argv in ARGVS:
        res = cli.run(argv)
        # The corpus stores the payload as JSON; the round trip must
        # reproduce the printed document exactly.
        assert _dump(json.loads(_dump(res.payload))) == _dump(res.payload), argv
        entry = {"argv": argv, "exit": res.exit_code, "payload": res.payload}
        lines.append(json.dumps(entry, sort_keys=True, ensure_ascii=False))
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_corpus_holds_exactly_the_argv_list():
    assert [e["argv"] for e in _load()] == ARGVS


def test_corpus_has_every_exit_code():
    assert {e["exit"] for e in _load()} == {0, 1, 2, 3}


def test_cli_reproduces_corpus_byte_for_byte():
    mismatches = []
    for entry in _load():
        res = cli.run(entry["argv"])
        got = (res.exit_code, _dump(res.payload))
        if got != (entry["exit"], _dump(entry["payload"])):
            mismatches.append(" ".join(entry["argv"]))
    assert not mismatches, mismatches[:10]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_golden.py --write")
    write()
    print(f"wrote {len(ARGVS)} entries to {CORPUS}")
