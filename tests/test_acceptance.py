"""Acceptance gate: one test per criterion, printing one pass/fail line each.

The criterion implementations live in binforms.verify and are shared with
the `binforms verify` CLI command.  Each result carries its elapsed time
and pinned time bound; a criterion fails if any check fails or the bound
is exceeded.  Known disagreements with published constants are surfaced
as notes, never patched into the checks themselves.  The last test pins
how `run_all` caps the sweeping criteria.
"""

from unittest import mock

from binforms import verify
from binforms.verify import (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def _report(result, capsys):
    with capsys.disabled():
        print(f"\n{result.line()}  [{result.elapsed:.2f}s / bound {result.bound:.0f}s]")
        for note in result.notes:
            print(f"    note: {note}")
    assert result.passed, "\n".join(result.failures)


def test_criterion_01_worked_examples(capsys):
    _report(criterion_1(), capsys)


def test_criterion_02_class_table(capsys):
    _report(criterion_2(), capsys)


def test_criterion_03_nine_fourteen(capsys):
    _report(criterion_3(), capsys)


def test_criterion_04_counting(capsys):
    _report(criterion_4(), capsys)


def test_criterion_05_codim_formulas(capsys):
    _report(criterion_5(), capsys)


def test_criterion_06_realization(capsys):
    _report(criterion_6(), capsys)


def test_criterion_07_closure_builds(capsys):
    _report(criterion_7(), capsys)


def test_criterion_08_poset(capsys):
    _report(criterion_8(), capsys)


def test_criterion_09_waring(capsys):
    _report(criterion_9(), capsys)


def test_criterion_10_related(capsys):
    _report(criterion_10(), capsys)


def test_criterion_11_tau_calculus(capsys):
    _report(criterion_11(), capsys)


def _stand_in(default=None):
    """A recording criterion: `max_j` with the given default, or no parameter."""
    if default is None:
        return mock.create_autospec(lambda: None)
    return mock.create_autospec(lambda max_j=default: None)


def test_run_all_caps_each_sweep_at_its_own_default(monkeypatch):
    stand_ins = (_stand_in(), _stand_in(9), _stand_in(4), _stand_in(), _stand_in(7))
    monkeypatch.setattr(verify, "ALL_CRITERIA", stand_ins)
    verify.run_all(5)
    assert [fn.call_args_list for fn in stand_ins] == [
        [mock.call()], [mock.call(5)], [mock.call(4)], [mock.call()], [mock.call(5)]
    ]
    for fn in stand_ins:
        fn.reset_mock()
    verify.run_all()
    assert [fn.call_args_list for fn in stand_ins] == [[mock.call()]] * 5
