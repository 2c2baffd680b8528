"""RULES has no dead and no missing rows.

Every theorem that the CLI prints names a row of ``tables.RULES`` and
starts its citations with the row's, and every row is printed by some
answer: one of the golden corpus, or one of EXTRA_ARGVS for the rules
that the corpus does not reach.  Every rule key that a library result
carries is a key of RULES, and no citation is typed in the CLI.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from bundlegauge import cli
from bundlegauge.bundles import reduce_class
from bundlegauge.errors import BundleGaugeError
from bundlegauge.gauge import (
    GaugeQuery,
    decompose_plocal,
    decompose_pointed_m0,
    decompose_unpointed_m0,
    run_query,
    s7_gauge_equivalent,
)
from bundlegauge.manifolds import is_homotopy_equivalent, normalize
from bundlegauge.tables import RULES, LieGroupId

CORPUS = Path(__file__).with_name("cli_golden.jsonl")

EXTRA_ARGVS = (
    "manifold equiv --a 3,0 --b 3,5",  # m differs
    "manifold equiv --a 3,1 --b 5,1",  # both are S^7
    "manifold equiv --a 1,6 --b 5,6",  # m >= 2
    "manifold suspend --l 3 --m 0",  # integral suspension
)

GROUPS = [LieGroupId.parse(t) for t in ("SU2", "SU3", "G2", "SU4", "Sp2", "Spin7", "E8")]


def _argvs() -> list[list[str]]:
    corpus = CORPUS.read_text(encoding="utf-8").splitlines()
    return [json.loads(line)["argv"] for line in corpus] + [
        ["--json", *line.split()] for line in EXTRA_ARGVS
    ]


def test_every_printed_theorem_is_a_row_and_every_row_is_printed():
    keys = {name: key for key, (name, _) in RULES.items()}
    assert len(keys) == len(RULES), "two rows share a name"
    printed = set()
    for argv in _argvs():
        payload = cli.run(argv).payload
        theorem = payload["theorem"]
        if theorem is None:
            continue
        assert theorem in keys, argv
        citations = list(RULES[keys[theorem]][1])
        assert payload["citations"][: len(citations)] == citations, argv
        printed.add(keys[theorem])
    assert printed == set(RULES)


def _library_rules() -> set[str]:
    rules = set()

    def attempt(call):
        try:
            result = call()
        except (BundleGaugeError, ValueError):
            return  # a refusal carries no rule
        if getattr(result, "verdict", None) != "out-of-scope":  # a refusal too
            rules.add(result.rule)

    specs = [normalize(l, m) for l in range(-3, 4) for m in (0, 1, 2, 5, 12)]
    for a in specs:
        for b in specs:
            attempt(lambda: is_homotopy_equivalent(a, b))
    for g in GROUPS:
        for k, kp in ((0, 1), (1, 2), (0, 3)):
            for locality in ("integral", "rational", 2, 3, 5):
                attempt(lambda: s7_gauge_equivalent(g, k, kp, locality))
        for l in (0, 5):
            attempt(lambda: decompose_unpointed_m0(g, l, 1))
            attempt(lambda: decompose_pointed_m0(g, l, 1))
        attempt(lambda: run_query(GaugeQuery(reduce_class(g, normalize(0, 1), 0))))
        for m, k in ((6, 0), (25, 0), (25, 5), (25, 3)):
            for pointed, looped in ((False, None), (True, None), (True, True)):
                attempt(lambda: decompose_plocal(g, 0, m, k, 5, pointed, looped))
    return rules


def test_library_rules_are_keys():
    rules = _library_rules()
    assert rules <= set(RULES), rules - set(RULES)
    # The grid reaches every rule that a library result can carry.
    assert rules == {
        "degree-3", "s7-identification", "james-whitehead", "crowley-escher",
        "s7-trivial", "s7-gcd", "unpointed-m0", "pointed-m0", "plocal-trivial",
        "plocal-looped", "plocal-pointed", "plocal-pointed-looped",
    }


def test_no_citation_is_typed_in_the_cli():
    # Theorem names and citations live in RULES; a year in parentheses in
    # the CLI means that one was typed there again.
    lines = Path(cli.__file__).read_text(encoding="utf-8").splitlines()
    year = re.compile(r"\((1[89]|20)[0-9]{2}\)")
    assert [line.strip() for line in lines if year.search(line)] == []
