"""Query batches, plan checks and fixtures shared by several test modules."""

from contextlib import contextmanager

from repro.analysis.related import shares_work
from repro.consolidation.algorithm import Consolidator
from repro.lang.ast import seq
from repro.lang.parser import parse_program


def shared_batch(n):
    """``n`` weather queries that all read ``monthly_avg_temp(@row, 7)``
    against different bounds: every pair shares work (and none is an
    α-copy of another), so every pair step runs the calculus (and is
    validated)."""

    return [
        parse_program(
            f"program q{i}(row) {{ t := monthly_avg_temp(@row, 7); "
            f"if (t > {10 * i}) {{ notify q{i} true; }} else {{ notify q{i} false; }} }}"
        )
        for i in range(n)
    ]


def assert_declines_obey_the_rule(report):
    """Over ``report.merge_tree`` (``keep_tree=True``): a node's pair is
    declined exactly when its two children share no work, and a declined
    node is their concatenation."""

    records = {r.program.pid: r for r in report.pairs}
    nodes, seen = [report.merge_tree.left if report.rides else report.merge_tree], 0
    for node in nodes:
        if node.is_leaf:
            continue
        nodes.extend((node.left, node.right))
        record, left, right = records[node.program.pid], node.left.program, node.right.program
        assert record.declined == (not shares_work(left.body, right.body))
        if record.declined:
            assert node.program.body == seq(left.body, right.body)
        seen += 1
    assert seen == len(report.pairs)


@contextmanager
def unsound_merges(monkeypatch):
    """Make Ω run each merged body twice — every pid notified twice, which
    the notification gate refutes.  Only the outermost Ω′ call doubles."""

    real = Consolidator._omega
    depth = [0]

    def doubled(self, ctx, s, r):
        depth[0] += 1
        try:
            body = real(self, ctx, s, r)
        finally:
            depth[0] -= 1
        return seq(body, body) if depth[0] == 0 else body

    with monkeypatch.context() as patch:
        patch.setattr(Consolidator, "_omega", doubled)
        yield
