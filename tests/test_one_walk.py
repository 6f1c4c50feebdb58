"""selfcheck walks the admissible quadruples through classifier's walk only.

classifier._products is the one place that splits the two sides by role,
buckets each side by a case's reads and pairs the buckets;
enumerate_invariants and selfcheck.tally are folds over it.  So the
private names of classifier that selfcheck reads are the walk and the
tables it is given: no bucket helper; the source is read with ast.  And
the battery takes its homeomorphism classes from the tally's values, so
one run walks the quadruples once.
"""

import ast

from nmsflow import classifier, selfcheck
from test_public_names import PACKAGE

ALLOWED = {"_products", "_CASES", "_case_of", "_sides"}


def _classifier_privates(path) -> set[str]:
    """The private names of classifier that a module reads, as
    classifier.NAME or through `from .classifier import`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "classifier"):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "classifier":
            names.update(alias.name for alias in node.names)
    return {name for name in names if name.startswith("_")}


def test_selfcheck_reads_the_walk_and_no_bucket_helper():
    used = _classifier_privates(PACKAGE / "selfcheck.py")
    assert "_products" in used
    assert used <= ALLOWED, sorted(used - ALLOWED)


def test_one_battery_walks_the_quadruples_once(monkeypatch):
    walk = classifier._products
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return walk(*args)

    monkeypatch.setattr(classifier, "_products", counted)
    assert selfcheck.run_selfcheck(6, write=lambda line: None) == 0
    assert calls == 1
