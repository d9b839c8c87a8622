"""The seeded command corpus (`tests/corpus.py`), run in process."""

import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

from corpus import Corpus

from coinduct.cli import run_command


def test_corpus_exits_0_to_3_and_raises_nothing(tmp_path):
    """Every command returns an exit code in {0, 1, 2, 3}, help included,
    and nothing escapes `run_command`; the corpus reaches all four."""
    codes, escaped = Counter(), []
    for argv in Corpus(tmp_path, seed=0).commands(4000):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                codes[run_command(argv)] += 1
            except (Exception, SystemExit) as exc:
                escaped.append((argv, repr(exc)))
    assert escaped == []
    assert set(codes) == {0, 1, 2, 3}, codes
