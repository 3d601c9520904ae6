"""tools/linecount.py: every line of a module falls in exactly one column."""

import importlib.util
from pathlib import Path

import pytest
from conftest import shared_tables

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("linecount",
                                               ROOT / "tools" / "linecount.py")
linecount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecount)

MODULES = sorted((ROOT / "src" / "lockstep").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_the_columns_add_up_to_each_modules_line_count(path):
    source = path.read_text()
    row = linecount.count(source)
    assert row["total"] == len(source.splitlines())
    assert sum(row[column] for column in linecount.COLUMNS[1:]) == row["total"]


def test_each_kind_of_line_is_counted_where_it_belongs():
    source = '''"""Module
docstring."""

# a comment
def f():
    """Doc."""
    text = """not a
docstring"""  # trailing comment
    return text
'''
    assert linecount.count(source) == {"total": 9, "code": 4, "docstring": 3,
                                       "comment": 1, "blank": 1}


def test_options_count_the_defaults_of_public_functions_and_methods():
    source = '''
def f(a, b=1, *, c=2, d):
    def inner(e=3):
        pass
def _private(g=4):
    pass
class Public:
    def __init__(self, h=5):
        pass
    def method(self, i=6, j=7):
        pass
    def _helper(self, k=8):
        pass
class _Private:
    def method(self, m=9):
        pass
'''
    assert linecount.options(source) == 5


def test_tables_count_each_cached_wrapped_and_seeded_table():
    source = '''
import functools
from functools import lru_cache

from lockstep.simnet import Seeds


@lru_cache(maxsize=8)
def decorated(x):
    return x


def plain(x):
    return x


wrapped = functools.lru_cache(maxsize=8)(plain)
_seeds = Seeds(8)


class Holder(Seeds):
    @classmethod
    @lru_cache(maxsize=8)
    def table(cls, x):
        return isinstance(x, Seeds)
'''
    assert linecount.tables(source) == 4


def test_the_tables_column_counts_every_shared_table():
    assert sum(linecount.tables(path.read_text()) for path in MODULES) == \
        len(shared_tables())
