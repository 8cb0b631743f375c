"""The input contract under mutated records: the first three rounds of
tools/fuzz_inputs.py, each round every record kind under every mutation,
run through cli.main in-process with file descriptor 1 captured. Exit 0
must print finite strict JSON, exits 2 and 3 nothing on stdout, and no
other exit code or exception may occur."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location("fuzz_inputs", Path(__file__).resolve().parent.parent / "tools" / "fuzz_inputs.py")
fuzz_inputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(fuzz_inputs)


# a fit on an extreme record prints no numpy warning: stderr holds at most the error record
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mutated_records_keep_the_input_contract(tmp_path):
    # round k mutates column k, so three rounds reach each of a record's
    # first three columns; ~8 ms a case
    results = [fuzz_inputs.check(i, tmp_path) for i in range(3 * fuzz_inputs.ROUND)]
    assert [(i, *r) for i, r in enumerate(results) if r[-1]] == []
    # exits 0 and 2 are reached, and no case exits 3: each record out of a
    # float's range is refused by name (tests/test_cli.py reaches exit 3)
    assert {code for *_, code, _ in results} == {0, 2}
