"""No hypothesis test may turn warnings into errors with a pytest mark.

When an example of a hypothesis test fails, hypothesis' failure report
imports libcst, whose import warns. Under a
pytest.mark.filterwarnings("error") mark that warning becomes an error
inside pytest's report hook, and the whole session ends with
INTERNALERROR instead of failing the one test. A property test that wants
warnings as errors scopes the filter to the call under test, as
run_without_warnings in test_cli.py does. This test reads every test file
with ast and names each function that carries both.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _called_name(node):
    """The last dotted name of the decorator's callee: "given" for
    @given(...) or @hypothesis.given(...), else None."""
    func = node.func if isinstance(node, ast.Call) else node
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _errors_on_warnings(decorator):
    """True for a filterwarnings mark whose first filter is an error action."""
    return (isinstance(decorator, ast.Call)
            and _called_name(decorator) == "filterwarnings"
            and bool(decorator.args)
            and isinstance(decorator.args[0], ast.Constant)
            and str(decorator.args[0].value).startswith("error"))


def given_tests_erroring_on_warnings(source):
    """Names of the functions in source decorated with both @given and a
    filterwarnings("error") mark."""
    return [
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_called_name(d) == "given" for d in node.decorator_list)
        and any(_errors_on_warnings(d) for d in node.decorator_list)
    ]


def test_no_hypothesis_test_turns_warnings_into_errors():
    offenders = [
        f"{path.name}::{name}"
        for path in sorted(TESTS.glob("*.py"))
        for name in given_tests_erroring_on_warnings(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_the_guard_names_a_hypothesis_test_that_errors_on_warnings():
    source = '''
@pytest.mark.filterwarnings("error")
@hypothesis.given(st.floats())
def test_marked(x):
    pass

@pytest.mark.filterwarnings("error")
def test_example_only():
    pass

@given(st.floats())
@pytest.mark.filterwarnings("ignore")
def test_ignoring(x):
    pass

@settings(max_examples=5)
@given(st.floats())
@pytest.mark.filterwarnings("error::DeprecationWarning")
def test_marked_below(x):
    pass
'''
    assert given_tests_erroring_on_warnings(source) == ["test_marked", "test_marked_below"]
