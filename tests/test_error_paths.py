"""Error propagation through the public facade.

Front-end errors (lexing, parsing, analysis) must surface as their typed
exceptions from ``AccordionEngine.execute``/``submit``; execution-layer
errors carry query context; every one of them is an ``AccordionError``.
"""

import pytest

from repro import AccordionEngine, QueryFailedError
from repro.data.tpch.queries import QUERIES
from repro.errors import (
    AccordionError,
    AnalysisError,
    ExecutionError,
    LexError,
    ParseError,
    SqlError,
)


@pytest.fixture(scope="module")
def engine(tiny_catalog):
    return AccordionEngine(tiny_catalog)


def test_lex_error_from_facade(engine):
    with pytest.raises(LexError, match="unexpected character"):
        engine.execute("select ` from lineitem")


def test_parse_error_from_facade(engine):
    with pytest.raises(ParseError, match="expected expression"):
        engine.execute("select from where")


def test_analysis_error_unknown_column(engine):
    with pytest.raises(AnalysisError, match="column not found"):
        engine.execute("select no_such_column from lineitem")


def test_analysis_error_unknown_table(engine):
    with pytest.raises(AnalysisError, match="table not found"):
        engine.execute("select * from no_such_table")


@pytest.mark.parametrize(
    "sql, message",
    [
        pytest.param(
            "select n_name from nation where n_nationkey in "
            "(select r_regionkey from region) or n_nationkey = 1",
            "IN \\(subquery\\) in unsupported position",
            id="in-subquery-under-or",
        ),
        pytest.param(
            "select n_name from nation where not "
            "(n_nationkey in (select r_regionkey from region))",
            "IN \\(subquery\\) in unsupported position",
            id="in-subquery-under-not",
        ),
        pytest.param(
            "select n_name from nation where exists "
            "(select r_regionkey from region) or n_nationkey = 1",
            "EXISTS in unsupported position",
            id="exists-under-or",
        ),
        pytest.param(
            "select n_name from nation where not exists "
            "(select r_regionkey from region where r_regionkey = n_regionkey)"
            " or n_nationkey = 1",
            "EXISTS in unsupported position",
            id="not-exists-under-or",
        ),
        pytest.param(
            "select n_name from nation where n_nationkey = "
            "(select max(r_regionkey) from region) or n_nationkey = 1",
            "scalar subquery in unsupported position",
            id="scalar-subquery-under-or",
        ),
        pytest.param(
            "select 1/0 from nation",
            "division by zero",
            id="constant-int-division-by-zero",
        ),
        pytest.param(
            "select 1.0/0 from nation",
            "division by zero",
            id="constant-float-division-by-zero",
        ),
        pytest.param(
            "select 1 % 0 from nation",
            "division by zero",
            id="constant-modulo-by-zero",
        ),
    ],
)
def test_unsupported_expression_raises_analysis_error(engine, sql, message):
    with pytest.raises(AnalysisError, match=message):
        engine.execute(sql)


def test_frontend_errors_are_typed_accordion_errors():
    for exc_type in (LexError, ParseError, AnalysisError):
        assert issubclass(exc_type, SqlError)
        assert issubclass(exc_type, AccordionError)
    assert issubclass(QueryFailedError, ExecutionError)


def test_unknown_stage_lookup_raises_execution_error(engine):
    query = engine.submit(QUERIES["Q1"])
    with pytest.raises(ExecutionError, match="no stage 999"):
        query.stage(999)
    engine.run_until_done(query)
    assert query.succeeded


def test_unfinished_query_result_raises(engine):
    query = engine.submit(QUERIES["Q1"])
    with pytest.raises(ExecutionError, match="has not finished"):
        query._materialize()
    engine.run_until_done(query)
    assert query.result().num_rows >= 1
